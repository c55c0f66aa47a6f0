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

val proc_hook : (unit -> int) ref
(** Returns the id of the current logical process.  Default: domain id. *)

val current_proc : unit -> int

val yield_hook : (access -> unit) ref
(** Called by STM implementations immediately before every shared access
    (transactional read, write, lock acquisition, commit), annotated with
    the access about to be performed.  Default: no-op.  The deterministic
    scheduler installs its context switch here. *)

val fault_injection : bool ref
(** Owned by {!Faults}: set while a fault-injection configuration is
    active.  Scheduling points consult it before calling {!fault_hook}, so
    the uninstrumented hot path pays one load and branch. *)

val fault_hook : (unit -> unit) ref
(** The injector {!Faults} installs; invoked at every scheduling point
    while {!fault_injection} is set.  May raise {!Control.Abort_tx}. *)

val recovery : bool ref
(** Owned by {!Recovery}: set while crash-tolerant lock recovery is
    enabled.  Scheduling points consult it before calling
    {!heartbeat_hook}, and the lock paths consult it before attempting an
    orphan steal, so the hot path pays one load and branch while recovery
    is off. *)

val heartbeat_hook : (unit -> unit) ref
(** Refreshes the current domain's {!Registry} heartbeat; installed by
    {!Recovery.enable} and invoked at every scheduling point while
    {!recovery} is set. *)

val serial_reclaim_hook : (unit -> unit) ref
(** Invoked inside the {!Serial} spin loops while {!recovery} is set, so a
    token orphaned by a dead or stale holder is eventually reclaimed;
    installed by {!Recovery.enable}. *)

val durability : bool ref
(** Owned by [Persist] (lib/persist): set while a write-ahead log is open.
    Engines consult it after installing a write set (stage the serialized
    entries with {!Durable.stage}) and {!Attempt.Make} consults it after
    every top-level outcome (fire or discard the staged record), so the
    hot path pays one load and branch while durability is off. *)

val schedule_point : unit -> unit
(** Invoke the yield hook with a {!Pure} annotation. *)

val schedule_point_on : access -> unit
(** Invoke the yield hook with the given annotation. *)

val tracing : bool ref
(** When set (by the deterministic scheduler), shared accesses performed by
    the STM machinery report themselves to {!trace_access}.  Call sites
    must guard on this flag so that non-simulated runs pay no allocation. *)

val trace_hook : (access -> unit) ref
(** Receiver of traced accesses; owned by the deterministic scheduler. *)

val trace_access : access -> unit
(** Report one shared access to the trace hook.  Callers are expected to
    check {!tracing} first: [if !Runtime.tracing then Runtime.trace_access a]. *)

val simulated : bool ref
(** Set by the deterministic scheduler while a simulation runs.  Spin-wait
    style delays (contention backoff) degenerate to scheduling points so
    that simulated runs never burn cycles in [cpu_relax] loops. *)

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

val sanitizer : bool ref
(** Owned by {!Sanitizer}: set while the sanitizer is enabled.
    Instrumented sites consult it before building an event, so the
    uninstrumented hot path pays one load and branch and no allocation. *)

val sanitizer_hook : (san_event -> unit) ref
(** The handler {!Sanitizer} installs; default no-op. *)

val sanitizer_event : san_event -> unit
(** Report one event to the sanitizer hook.  Callers are expected to check
    {!sanitizer} first. *)

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
      ([false]).  Under {!simulated} the spin yields scheduling points. *)

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
(** Globally unique transaction identifiers. *)

val fresh_tvar_id : unit -> int
(** Globally unique tvar / protection-element identifiers. *)

val reset_sim_ids : unit -> unit
(** Reset the per-process id pools used while {!simulated} is set.  Called
    by the deterministic scheduler at the start of every run so that ids
    are a deterministic function of (process, allocation index) — a
    requirement for partial-order reduction: independent steps must
    allocate the same ids in either execution order. *)

(** Thread-local-state registry.  Every STM registers the save/restore pair
    for its "current transaction" slot; the deterministic scheduler snapshots
    all slots when context-switching between logical processes. *)

val register_tls : save:(unit -> Obj.t) -> restore:(Obj.t -> unit) -> unit
val save_all_tls : unit -> Obj.t array
val restore_all_tls : Obj.t array -> unit
