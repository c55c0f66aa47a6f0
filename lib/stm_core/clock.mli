(** The global version clock shared by all STM instances, with pluggable
    contention policies (named after the TL2 implementation's variants).

    A single process-wide clock keeps transactions from different STM
    implementations in one mutual order, which the cross-STM tests rely
    on.  How writers obtain their write version is governed by
    {!Runtime.clock_policy}:

    - {b GV1}: [tick] is a [fetch_and_add].  Unique write versions, one
      guaranteed RMW of a single shared line per writer commit.
    - {b GV4} ("pass on failure"): [tick] CASes [v -> v + 1] once; on
      failure it {e adopts} the current clock value instead of retrying.
      Two commits may thus share a write version.  This is safe in this
      runtime because every engine acquires all its write locks {e before}
      ticking: a snapshot that could miss a loser's writes at the shared
      version must have started after those locks were taken, so it aborts
      on the locked stamps regardless of the version number.
    - {b GV5} ("increment on abort"): [tick] writes nothing — the write
      version is [now () + 2], raised when needed to one above the highest
      version among the transaction's locked write entries (the [floor]
      argument) so that per-location versions stay strictly increasing,
      which the interval-extension engines (LSA, SwissTM, OE-STM,
      View-STM) and the sanitizer's regression check depend on.  Readers
      that see these future versions abort with "too new"; each abort
      bumps the clock by one ({!on_abort}), so a reader catches up after
      at most two aborts per lagging location.  GV5 therefore trades some
      reader aborts for {e zero} clock writes on the commit path — and the
      clock may legitimately run {e behind} installed versions.

    Policies are selected process-wide and must only be switched while no
    transactions are live ({!set_policy} fences the clock when leaving
    GV5 so that later ticks cannot re-mint an installed version). *)

val now : unit -> int
(** Current clock value.  Under GV5 this may be smaller than versions
    already installed in tvar locks. *)

val tick : ?floor:(unit -> int) -> unit -> int
(** The committing writer's write version.  Call with all write locks
    held.  [floor] (consulted by GV5 only) must return the highest
    committed version among the locked write entries —
    {!Rwsets.Wset.max_version}; defaults to [fun () -> 0], which is only
    correct for engines that never run under GV5. *)

val on_abort : unit -> unit
(** Policy hook for the retry loop: under GV5, bump the clock so that
    "version too new" aborts make the observers' next read stamp catch up
    with lazily installed versions.  A no-op under GV1/GV4. *)

val catch_up : int -> unit
(** Advance the clock to at least [v] (monotone; no-op if already past).
    Called by WAL recovery with the highest replayed commit version, so
    versions minted after a restart stay strictly above everything the
    replay installed — the next recovery replays in commit-version order,
    and a post-recovery record must sort after the state it follows.
    Under GV5 it is also called by an extending reader with the version
    it saw, so that its new snapshot covers that version.  Traced as a
    clock write. *)

val current_policy : unit -> Runtime.clock_policy

val set_policy : Runtime.clock_policy -> unit
(** Switch the process-wide policy.  Never call while transactions are
    live.  Leaving GV5 advances the clock past every version GV5 handed
    out, so the change is transparent to existing tvars. *)

val all_policies : Runtime.clock_policy list

val policy_name : Runtime.clock_policy -> string
(** ["gv1" | "gv4" | "gv5"] — stable strings used by CLIs, the JSON report
    config and CI. *)

val policy_of_string : string -> Runtime.clock_policy
(** Inverse of {!policy_name} (case-insensitive); raises [Invalid_argument]
    on anything else. *)

val gv4_tick : interference:(unit -> unit) -> unit -> int
(** The GV4 step with a test-only injection point: [interference] runs
    between the clock read and the CAS, so a test can force the
    adoption branch deterministically.  Production callers use {!tick}. *)

val reset_for_testing : unit -> unit
(** Reset the clock (and the GV5 high-water mark) to zero.  Only for
    isolated unit tests, with no live transactions and no surviving tvars
    from before the reset — note that under GV5 existing tvars may carry
    versions {e ahead} of the clock, which a reset would replay. *)
