(** Txsan: the transactional sanitizer.

    A dynamic checker of the discipline the STM engines and their clients
    must follow for the paper's guarantees to hold.  Enabled with
    {!enable} (and advertised through {!Runtime.sanitizer}), it receives:

    - lock-transition, non-transactional-store and peek events from the
      instrumented {!Vlock} (boosting's abstract locks are vlocks too)
      and {!Tvar} (via {!Runtime.sanitizer_event});
    - read/commit/lifecycle callbacks from the four engines;
    - an abort audit from {!Retry_loop} around every attempt.

    {2 Check catalogue}

    Violations — states a correct engine and disciplined client code can
    never produce:

    - [Lock_imbalance]: a versioned lock acquired while held,
      or released while free / by a non-holder;
    - [Version_regress]: a lock's committed version moved backwards
      (acquired below, or unlocked to at-or-below, the highest version the
      sanitizer has seen for that element);
    - [Unsafe_write_race]: [Tvar.unsafe_write] outside a commit's install
      phase while transactions are live anywhere — the single-domain
      initialisation escape hatch used concurrently;
    - [Peek_escape]: [Tvar.peek] while a transaction is live on another
      logical process (escape reads can be torn);
    - [Commit_stale]: a writing commit serialising at tick [wv] whose read
      set contains an unlocked entry with a version that changed since the
      read but is no newer than [wv] — proof the engine's validation was
      skipped or wrong (interference after a sound validation necessarily
      carries a tick beyond [wv] and is skipped, so this cannot
      false-positive on a correct engine);
    - [Abort_swallowed]: a {!Control.abort_tx} was raised during an
      attempt but never reached the retry loop (a catch-all handler in the
      transaction body ate it), detected with a per-domain abort
      generation counter ({!Txrec.abort_generation});
    - [Bad_steal]: recovery stole a lock from an owner that is still
      live — neither crashed, nor dead/stale in the {!Registry}, nor
      doomed.  A correct {!Recovery} dooms the victim before the steal, so
      a stale victim resuming its heartbeat cannot false-positive here.

    Events that are {e not} violations: in sanitizer mode every
    transactional read revalidates the full read set (strict opacity), and
    a failed revalidation aborts the transaction at the read — counted in
    [checks.zombie_aborts] and in the engine's normal abort statistics,
    because correct engines are allowed to run zombies as long as commit
    validation catches them.

    All checks are suppressed while {!Runtime.simulated} is set: the
    deterministic scheduler's evaluator closures peek mid-schedule by
    design, and its kills unwind transactions at arbitrary points.

    {2 Overhead model}

    With the sanitizer off every instrumented site costs one load and
    branch ([Runtime.sanitizer]).  Enabled, lock transitions, stores and
    peeks each take a global mutex; transactional reads additionally
    revalidate the whole read set, making reads O(read-set size) — the
    usual sanitizer regime of roughly an order of magnitude on read-heavy
    transactions.  Compare against the committed BENCH_6a baseline, never
    against numbers taken with the sanitizer on (see EXPERIMENTS.md). *)

type kind =
  | Lock_imbalance
  | Version_regress
  | Unsafe_write_race
  | Peek_escape
  | Commit_stale
  | Abort_swallowed
  | Bad_steal

type violation = {
  v_kind : kind;
  v_pe : int;  (** protection element, or -1 when not tied to one *)
  v_proc : int;  (** logical process that triggered the check *)
  v_owner : int;  (** owner / transaction id involved, or -1 *)
  v_detail : string;
}

(** Work performed, for the JSON report's [sanitizer.checks] object and
    for asserting in tests that the checks actually ran. *)
type checks = {
  lock_transitions : int;
  reads_validated : int;
  commits_checked : int;
  unsafe_writes_checked : int;
  peeks_checked : int;
  attempts_audited : int;
  zombie_aborts : int;  (** strict-opacity aborts issued at reads *)
  steals_checked : int;  (** recovery steal events audited *)
}

val enable : unit -> unit
(** Install the event handler and the abort notifier and set
    {!Runtime.sanitizer}.  Does not clear previously recorded state; call
    {!reset} for a fresh run. *)

val disable : unit -> unit
(** Clear {!Runtime.sanitizer}; recorded violations are kept. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded violations, counters and internal tables (lock and
    live-transaction state reseed lazily — a release of an unseen lock is
    treated as benign cold start, never flagged). *)

val violations : unit -> violation list
(** Recorded violations, oldest first.  At most 256 full records are
    kept; {!violation_count} and {!counts_by_kind} keep counting. *)

val violation_count : unit -> int
val counts_by_kind : unit -> (kind * int) list
val all_kinds : kind list
val kind_name : kind -> string
val checks : unit -> checks
val pp_violation : Format.formatter -> violation -> unit

(** {2 Engine-facing hooks}

    Engines guard every call on [!Runtime.sanitizer] so the disabled cost
    stays one load and branch. *)

val tx_begin : owner:int -> unit
(** A top-level attempt with lock-owner id [owner] starts on the current
    logical process.  Must be paired with {!tx_end} on every exit path. *)

val tx_end : owner:int -> unit

val tx_crashed : owner:int -> unit
(** The attempt owning [owner] crashed (simulated, {!Control.Crashed})
    while possibly holding locks: it stops counting as live, and steals
    against it are accepted even before its registry slot goes stale. *)

val on_tx_read : validate:(unit -> bool) -> unit
(** Called after a transactional read was tracked; [validate] runs the
    engine's own full read-set revalidation.  Aborts with
    [Read_inconsistent] (counted as a zombie abort, not a violation) when
    it fails. *)

val on_commit : owner:int -> wv:int -> ((Rwsets.rentry -> unit) -> unit) -> unit
(** Called by a writing commit after the engine validated its read set and
    ticked the clock to [wv], while the write locks are still held and
    before installing.  The third argument iterates the commit's tracked
    read entries; stale ones (see [Commit_stale] above) are reported. *)

(** {2 Retry-loop-facing attempt audit} *)

val attempt_fence : unit -> int
(** The abort generation before an attempt starts. *)

val audit_attempt : before:int -> aborted:bool -> unit
(** Audit one finished attempt: with the fence [before] taken at its
    start and whether it ended in an [Abort_tx] reaching the loop, any
    additional generation movement is an abort swallowed inside the body.
    Restores the generation to [before] so enclosing loops audit only
    their own attempts. *)
