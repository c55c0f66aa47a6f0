(** Exhaustive bounded exploration of interleavings (stateless model
    checking).

    A scenario is rebuilt from scratch for every schedule (fresh tvars,
    fresh processes), executed under the deterministic scheduler, and judged
    by its [check] function.  This is how the repository demonstrates that
    elastic transactions composed {e without} outheritance admit an
    atomicity violation in {e some} interleaving (Fig. 1), while OE-STM
    admits none in {e any}.

    Two modes share one entry point:

    - [`Dpor] (default) — dynamic partial-order reduction in the style of
      Flanagan & Godefroid (POPL 2005) with sleep sets.  Steps are grouped
      into Mazurkiewicz traces by the {!Dep} commutativity relation over the
      access footprints recorded at every scheduling point; only one
      representative schedule per trace is executed, races discovered along
      each run seed backtracking points, and sleep sets prevent re-exploring
      commuted prefixes.  Verdicts are identical to naive mode — an
      [All_ok] still means {e every} interleaving (up to commutation of
      independent steps) satisfies [check].
    - [`Naive] — enumerate the full schedule tree depth-first.  Kept as the
      reference oracle: the differential test suite runs both modes on the
      same scenarios and asserts equal verdicts. *)

type scenario = {
  procs : unit -> (unit -> unit) list;
      (** fresh logical processes (and the state they share) *)
  check : Sched.outcome -> bool;
      (** whether this execution is acceptable; consult shared state
          captured by [procs]'s closure.  Executions with failures can be
          accepted (e.g. starvation is not a safety violation). *)
}

type result =
  | All_ok of { explored : int; pruned : int }
      (** every explored schedule satisfied [check].  [explored] counts
          executed runs; [pruned] counts scheduling branch points skipped
          as redundant (always 0 in naive/sample modes). *)
  | Violation of { schedule : int list; explored : int; pruned : int }
      (** [schedule] (choice indices into the ready list at each step)
          reproduces the violation via {!Sched.run_schedule} *)
  | Out_of_budget of { explored : int; pruned : int }
      (** bound reached before exhausting the tree; no violation found *)

val explore :
  ?mode:[ `Dpor | `Naive ] ->
  ?max_runs:int ->
  ?max_steps:int ->
  ?retry_cap:int ->
  scenario ->
  result
(** @param mode       [`Dpor] (default) or the exhaustive [`Naive] oracle
    @param max_runs   bound on the number of schedules (default 20_000)
    @param max_steps  per-run scheduling-point bound (default 20_000)
    @param retry_cap  transaction retry bound during exploration, to turn
                      livelocks into {!Stm_core.Control.Starvation} failures
                      (default 1_000) *)

val sample :
  ?runs:int ->
  ?max_steps:int ->
  ?retry_cap:int ->
  ?starvation_mode:[ `Raise | `Fallback ] ->
  ?seed:int ->
  scenario ->
  result
(** Random-walk alternative to {!explore} for scenarios whose interleaving
    tree is too large to exhaust: each run draws scheduling decisions from
    a seeded PRNG.  [All_ok] here means "no violation in [runs] samples",
    not a proof.  A returned violation's schedule replays through
    {!Sched.run_schedule} exactly like the exhaustive explorer's.

    [starvation_mode] (default [`Raise], like {!explore}) controls what a
    process hitting [retry_cap] does: [`Raise] prunes the schedule via
    {!Control.Starvation}; [`Fallback] lets it escalate to the
    serial-irrevocable mode instead, which the chaos suite uses to drive
    the fallback path under random schedules. *)

val with_retry_policy :
  retry_cap:int -> starvation_mode:[ `Raise | `Fallback ] -> (unit -> 'a) -> 'a
(** Run [f] under this retry policy, restoring the caller's however it ends. *)

val pp_result : Format.formatter -> result -> unit
