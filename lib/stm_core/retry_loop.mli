(** The outermost retry loop shared by all STM implementations. *)

val run : stats:Stats.t -> (attempt:int -> 'a) -> 'a
(** [run ~stats f] calls [f] (one full transaction attempt: begin, body,
    commit) until it returns instead of raising {!Control.Abort_tx}.  Aborts
    are counted in [stats] and followed by one randomised exponential
    {!Backoff} wait (one scheduling point under {!Runtime.simulated}).  The
    backoff state is created at the first abort that waits, seeded with a
    fresh {!Runtime.fresh_tx_id}, so a transaction that commits on its
    first attempt allocates no contention state and does no atomic
    read-modify-write for it.  [f] receives the attempt number (0 on the
    first try).

    When {!Runtime.retry_cap} attempts have all aborted, the loop does not
    wait again; what happens next depends on {!Runtime.starvation_mode}:

    - [`Fallback] (default): escalate to the serial-irrevocable mode —
      acquire the global {!Runtime.Serial} token and retry until commit.
      Every engine refuses commits from other processes while the token is
      held ({!Control.Killed} aborts), so the escalated transaction faces
      strictly decreasing interference and is guaranteed to commit.
      Recorded via {!Stats.record_starvation} and {!Stats.record_fallback}.

    - [`Raise]: raise {!Control.Starvation} — the deterministic scheduler's
      way of pruning livelocking interleavings.

    If {!Runtime.tx_timeout_ns} is set when [run] is entered and expires
    before the transaction commits (optimistically or serially), the loop
    gives up with {!Control.Timeout}, recorded via {!Stats.record_timeout}.
    The deadline counts from the first attempt: the loop reads the
    monotonic clock once at entry for it, and not at all when no deadline
    is set.

    While fault injection is active ({!Runtime.fault_injection}), each
    attempt is bracketed with {!Faults.enter_attempt}/{!Faults.leave_attempt}
    so injected faults never fire outside transaction attempts.

    When {!Stats.detailed_enabled} is on, every attempt is additionally
    timed with the monotonic clock — committing attempts feed the
    commit-latency histogram (plus the retry-depth counter with the number
    of preceding aborts), aborted attempts the abort-latency histogram.
    When off, the loop pays one load-and-branch and no clock reads.

    @raise Control.Starvation under [`Raise] when the retry cap is exhausted.
    @raise Control.Timeout when the transaction's deadline expires. *)
