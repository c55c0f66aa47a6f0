(** Deterministic cooperative scheduler.

    Runs N logical processes on the current domain, context-switching at
    every STM scheduling point ({!Stm_core.Runtime.schedule_point}, invoked
    by all STM implementations before each shared access).  The caller
    chooses which ready process runs at every step, which makes whole-program
    interleavings reproducible and enumerable — the paper's 64-hardware-
    thread concurrency, simulated exactly on one core.

    While a simulation runs, the scheduler owns
    {!Stm_core.Runtime.yield_hook} and the [sim] and [trace] fields of
    {!Stm_core.Runtime.plane}, restored however the run ends, and swaps
    each STM's thread-local state when switching processes, so transactions
    of different logical processes never bleed into each other.

    Each executed step carries its {e footprint}: the annotation announced
    at the scheduling point, plus every shared access the STM machinery
    actually performed before the next scheduling point (lock stamps, clock
    reads/ticks, value installs), captured through
    the plane's [trace] hook.  The DPOR explorer consumes these to
    decide which steps commute. *)

type outcome = {
  steps : int;  (** scheduling points executed *)
  failures : (int * exn) list;
      (** processes that ended with an exception (e.g.
          {!Stm_core.Control.Starvation}), by process index *)
  killed : int list;
      (** processes forcibly terminated: [max_steps] was reached, or the
          guide cut the run short *)
}

val completed : outcome -> bool
(** No failures and nobody was killed. *)

type choice = {
  ready : int list;  (** indices of runnable processes, ascending *)
  chosen : int;      (** index {e into [ready]} that was picked *)
  accesses : Stm_core.Runtime.access list;
      (** footprint of the step: announced annotation first, then the
          dynamically traced accesses in program order *)
}

type guidance = [ `Go of int | `Cut ]

val run_guided :
  ?max_steps:int ->
  guide:
    (step:int ->
    ready:int list ->
    prev:Stm_core.Runtime.access list ->
    guidance) ->
  (unit -> unit) list ->
  outcome * choice list
(** [run_guided ~guide procs] executes the processes under full caller
    control.  At every decision the guide receives the step number, the
    ready list, and [prev] — the complete footprint of the step that just
    finished (empty at step 0).  [`Go i] runs the [i]-th ready process
    (clamped); [`Cut] abandons the run: all remaining processes are killed
    and reported in [killed].  A cut run's outcome is partial and must not
    be verdict-checked — the DPOR explorer cuts exactly the runs whose every
    extension is equivalent to an already-explored one.

    Every run resets the simulation id pools
    ({!Stm_core.Runtime.reset_sim_ids}), so tvar/tx ids are a deterministic
    function of the schedule. *)

val run :
  ?max_steps:int ->
  ?pick:(step:int -> ready:int list -> int) ->
  (unit -> unit) list ->
  outcome * choice list
(** [run procs] executes the processes to completion under the scheduling
    policy [pick] (default: round-robin), returning the outcome and the full
    decision trace.  [pick] returns an index into [ready].

    @param max_steps forcibly terminates remaining processes after this many
    scheduling points (default 100_000), recording them in [killed]. *)

val run_schedule :
  ?max_steps:int -> schedule:int list -> (unit -> unit) list -> outcome * choice list
(** Replay a specific schedule: the [n]-th scheduling decision picks
    [List.nth schedule n] (an index into the ready list, clamped); once the
    schedule is exhausted, the lowest ready process is chosen. *)
