(** Transaction control flow.

    Aborts are implemented with an exception that unwinds to the outermost
    [atomic] retry loop; user code must not intercept it (catch-all handlers
    inside transactions must re-raise {!Abort_tx}). *)

(** Why a transaction aborted; recorded in statistics. *)
type reason =
  | Read_locked          (** a read found the location's lock held *)
  | Read_inconsistent    (** double-stamp read saw the stamp change *)
  | Read_too_new         (** version newer than the validity interval, extension failed *)
  | Window_invalid       (** elastic window validation failed (cut impossible) *)
  | Validation_failed    (** commit-time read-set validation failed *)
  | Lock_contention      (** could not acquire a write lock *)
  | Killed               (** aborted by the contention manager or by the
                             serial-irrevocable gate *)
  | Explicit             (** user requested the abort *)
  | Injected             (** spurious abort injected by {!Faults} *)
  | Poisoned             (** the transaction's registry slot was doomed by
                             {!Recovery}: one of its locks was presumed
                             orphaned and stolen, so committing would not
                             be atomic *)

exception Abort_tx of reason
(** Raised to abort the current transaction attempt.  Caught only by the
    top-level attempt's handler. *)

exception Starvation of string
(** Raised when a transaction exceeds the configured retry cap
    ({!Runtime.retry_cap}) {e and} {!Runtime.starvation_mode} is [`Raise];
    used by the deterministic scheduler to prune livelocking interleavings.
    Under the default [`Fallback] mode the retry loop escalates to the
    serial-irrevocable fallback instead, so this exception cannot escape. *)

exception Crashed
(** Simulated abrupt domain death, raised only by {!Faults} crash
    injection.  Unlike every other exception, engines deliberately do
    {e not} release locks, run undo logs or clear their registry slot when
    it unwinds — it models a domain that stopped executing mid-flight, and
    the orphaned state it leaves behind is what {!Recovery} reclaims. *)

exception Timeout of string
(** Raised when a transaction's deadline ({!Runtime.tx_timeout_ns}) expires
    before it manages to commit.  Never raised when no timeout is
    configured (the default): the retry loop then retries, and eventually
    serialises, until the transaction commits. *)

val abort_tx : reason -> 'a
(** Raise {!Abort_tx}.  While the sanitizer is on, first bumps the
    calling process's {!abort_generation}, so the sanitizer can detect
    aborts that user code swallows before they reach the attempt's
    handler.  Code raising {!Abort_tx} directly is invisible to it. *)

val abort_generation : unit -> int
(** The calling process's count of {!abort_tx} raises made while the
    sanitizer was on. *)

val set_abort_generation : int -> unit
(** Restore the count after an attempt is audited, so nested attempts
    (one engine's [atomic] inside another's) each see only their own
    aborts. *)

val reason_to_string : reason -> string
val reason_index : reason -> int
val reason_count : int
val all_reasons : reason list
