(** Hooks connecting the STM runtime to its execution environment.

    By default transactions run on OCaml domains: the current process id is
    the domain id and scheduling points are no-ops.  The deterministic
    scheduler ({!Schedsim}) overrides these hooks to multiplex many logical
    processes on one domain and to context-switch at every shared-memory
    access, which is what makes exhaustive interleaving exploration
    possible. *)

(** What a scheduling point is about to do to shared state, named by
    protection element (= tvar id, abstract-lock id, or {!clock_pe}).
    [Pure] promises the step touches nothing shared.  Annotations may be
    conservative: claiming an access that does not happen is always safe
    (the explorer merely prunes less), claiming [Pure] for a step with a
    shared effect is not. *)
type access =
  | Pure
  | Read of int
  | Write of int
  | Lock of int  (** acquisition or release of a versioned lock:
                     treated as a read-modify-write of the element *)

val clock_pe : int
(** Reserved protection-element id of the global version clock. *)

(** One shared-state event observed by the transactional sanitizer
    ({!Sanitizer}).  Lock events carry the owner and the committed version
    seen at the transition; stores and peeks name only the protection
    element (plus, for stores, the lock holder at that instant). *)
type san_event =
  | San_acquire of { pe : int; owner : int; version : int }
  | San_release of { pe : int; owner : int; version : int option }
      (** [Some v]: released to a new version (commit install);
          [None]: restored to the pre-lock stamp (an abort, or any
          release of a boosting abstract lock) *)
  | San_unsafe_write of { pe : int; locked_owner : int option }
  | San_peek of { pe : int }
  | San_steal of { pe : int; victim : int; version : int option }
      (** recovery reclaimed a lock held by [victim]; [Some v]: a
          {!Vlock} (a tvar's lock or a boosting abstract lock) stolen to
          poisoned version [v]; [None]: the serial token *)

(** What {!Recovery.enable} installs: [heartbeat] refreshes the domain's
    {!Registry} slot at every scheduling point; [serial_reclaim] runs in
    the {!Serial} spin loops, so an orphaned token is reclaimed. *)
type recovery_hooks = {
  heartbeat : unit -> unit;
  serial_reclaim : unit -> unit;
}

(** The instrumentation plane: one field per cross-cutting concern, on iff
    it holds its hook ([Some _], or [true] for the two flags).  Turning a
    concern on or off is one field write.  {!plane} is allocated once, so
    a guard is one load and one branch, and a site whose concern is off
    builds no event.  Sites match on the options; closures are never
    compared.

    - [sim]: the deterministic scheduler is running simulated processes
      on this domain.  While set, spin-waits yield, ids come from
      per-process counters, and recovery and sanitizer checks are inert.
    - [trace]: the scheduler's receiver of every shared access (lock
      stamps, tvar stores, clock reads and ticks).
    - [faults]: {!Faults.point}, called at every scheduling point.  Lock
      acquisition and validation consult {!Faults} only while it is set.
    - [recovery]: {!Recovery}'s hooks.  While set, lock paths may steal
      orphans and attempts publish to the {!Registry}.
    - [sanitizer]: {!Sanitizer}'s event handler.
    - [durable]: a write-ahead log is open (lib/persist).  Engines stage
      installed entries ({!Durable.stage}); {!Attempt.Make} fires or
      discards them after each top-level outcome.
    - [detailed]: detailed metrics ({!Stats.set_detailed}).  Read once
      per transaction by {!Attempt.Make} (two clock reads per attempt when
      on), and by the tvar engine at every transactional read (write-set
      hit/miss counts), validation (scan length) and commit (set sizes):
      a load and a branch at each when off. *)
type plane = {
  mutable sim : bool;
  mutable trace : (access -> unit) option;
  mutable faults : (unit -> unit) option;
  mutable recovery : recovery_hooks option;
  mutable sanitizer : (san_event -> unit) option;
  mutable durable : bool;
  mutable detailed : bool;
}

val plane : plane
(** The process-wide plane.  Everything starts off. *)

val save_plane : unit -> plane
(** A copy of {!plane}'s fields, for {!restore_plane}. *)

val restore_plane : plane -> unit
(** Write every field of a saved copy back into {!plane}. *)

(** {1 Per-process state}

    A {e local} holds one value per logical process: per domain on real
    domains (a plain DLS key), per simulated process under the
    deterministic scheduler, which installs a process's set of locals
    whenever that process runs. *)

val local : (unit -> 'a) -> 'a Domain.DLS.key
(** [local init] registers a local whose value [init] builds for each
    domain and each fresh simulated process.  Module initialisation
    only. *)

type locals
(** One value of every local. *)

val save_locals : unit -> locals

val fresh_locals : proc:int -> locals
(** New values for simulated process [proc] ({!current_proc} is [proc]);
    nothing is installed. *)

val restore_locals : locals -> unit

val current_proc : unit -> int
(** The current logical process, a local: the domain id on a real domain,
    the process index under simulation. *)

val yield_hook : (access -> unit) ref
(** Called by STM implementations immediately before every shared access
    (transactional read, write, lock acquisition, commit), annotated with
    the access about to be performed.  Default: no-op.  The deterministic
    scheduler installs its context switch here.  Outside the plane: it is
    called unconditionally at every scheduling point. *)

val schedule_point : unit -> unit
(** A scheduling point with a {!Pure} annotation: the recovery heartbeat
    and the fault injector when they are on, then the yield hook. *)

val schedule_point_on : access -> unit
(** {!schedule_point} with the given annotation. *)

(** Which global-version-clock algorithm {!Clock} runs (named after the
    TL2 implementation's GV1/GV4/GV5 variants):

    - [GV1]: every writer commit does one [fetch_and_add] — unique write
      versions, maximal clock contention;
    - [GV4] ("pass on failure"): one CAS; a loser adopts the winner's value
      as its own write version instead of retrying, so the clock absorbs at
      most one RMW per {e group} of simultaneous commits;
    - [GV5] ("increment on abort"): writers commit at [now () + 2] without
      touching the clock at all; the clock is bumped lazily on aborts so a
      reader that keeps seeing "too new" versions catches up.

    The flag lives here rather than in {!Clock} so engines and the
    sanitizer can branch on the policy without a dependency cycle.  Switch
    only through {!Clock.set_policy}, and never while transactions are
    live. *)
type clock_policy = GV1 | GV4 | GV5

val clock_policy : clock_policy ref

val retry_cap : int ref
(** Maximum number of times one [atomic] call may retry optimistically.
    What happens at the cap depends on {!starvation_mode}: under the
    default [`Fallback] the transaction escalates to the serial-irrevocable
    mode ({!Serial}) and is guaranteed to commit; under [`Raise] it raises
    {!Control.Starvation}.  Default 64; must be [>= 0] (0 escalates after
    the first abort).  The deterministic scheduler installs its own cap
    (and [`Raise]) to prune livelocking schedules. *)

val starvation_mode : [ `Raise | `Fallback ] ref
(** What the retry loop does when {!retry_cap} is exhausted.  [`Fallback]
    (default): enter the serial-irrevocable mode and commit.  [`Raise]:
    raise {!Control.Starvation} — set by the deterministic scheduler, where
    a global mutual-exclusion fallback would defeat exploration. *)

val tx_timeout_ns : int option ref
(** Optional per-transaction deadline (nanoseconds from first attempt).
    When set, a transaction that can neither commit optimistically nor via
    the serial fallback within the budget raises {!Control.Timeout}
    (recorded in its engine's {!Stats}).  Default [None]: no deadline. *)

(** The serial-irrevocable fallback token.  [enter]/[exit] are called by
    {!Attempt.Make}'s escalation; engines consult [commit_allowed] in their commit (or,
    for boosting, lock-acquisition) paths and abort with
    {!Control.Killed} when another process holds the token. *)
module Serial : sig
  val active : unit -> bool
  (** Some process holds the token. *)

  val mine : unit -> bool
  (** The current process holds the token. *)

  val commit_allowed : unit -> bool
  (** No token holder, or the holder is the current process. *)

  val enter : ?giveup:(unit -> bool) -> unit -> bool
  (** Spin until the token is acquired ([true]) or [giveup] returns [true]
      ([false]).  Under simulation ([plane.sim]) the spin yields
      scheduling points. *)

  val exit : unit -> unit
  (** Release the token if held by the current process. *)

  val holder_id : unit -> int
  (** Current token holder's process id, or -1 when free. *)

  val force_clear : expected:int -> bool
  (** Release a token held by process [expected] on its behalf (orphan
      reclamation); [false] if the holder changed in the meantime.  Only
      {!Recovery} may call this, and only for a holder whose registry slot
      is dead or stale.  CAS-based, so it cannot race with a resurrected
      holder's own [exit]. *)

  val await_clear : ?giveup:(unit -> bool) -> unit -> bool
  (** Park while another process holds the token; [true] once clear (or if
      the current process is the holder), [false] if [giveup] fired. *)
end

val fresh_tx_id : unit -> int
(** Globally unique transaction identifiers.  Under simulation, a
    per-process counter salted with {!current_proc} (DESIGN.md §5c). *)

val fresh_tvar_id : unit -> int
(** Globally unique tvar / protection-element identifiers, drawn alike. *)
