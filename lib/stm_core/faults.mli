(** Deterministic fault injection for robustness testing.

    When enabled, a seeded PRNG perturbs the STM machinery at its natural
    choice points: scheduling points may delay or spuriously abort the
    running attempt, versioned-lock acquisitions may be refused, read-set
    validations may be failed.  All perturbations surface through paths the
    engines already handle (an abort reason, a failed [try_lock], a failed
    validation), so a correct engine must stay linearizable under any fault
    schedule — which is exactly what the chaos suite checks.

    Injection happens only inside transaction attempts (see
    {!enter_attempt}) and never while the serial-irrevocable fallback token
    is held, so escalated transactions still commit and the no-starvation
    guarantee survives arbitrary fault rates. *)

type config = {
  seed : int;
  spurious_abort : float;   (** abort probability per scheduling point *)
  lock_fail : float;        (** refusal probability per lock acquisition *)
  validation_fail : float;  (** failure probability per read-set validation *)
  delay : float;            (** delay probability per scheduling point *)
  max_delay_spins : int;    (** upper bound on one injected delay *)
  fsync_fail : float;  (** per WAL fsync: the sync reports failure and is
                           skipped, so acknowledged durability lags — the
                           records remain buffered for the next sync *)
  short_write : float;  (** per WAL flush: only a prefix of the buffer
                            reaches the file and the log is poisoned
                            (subsequent appends are dropped), leaving a
                            torn tail for recovery to truncate *)
}

val default : config
(** Seed 1, all rates zero, 64 max delay spins. *)

val parse : string -> config
(** Parse a CLI spec like ["seed=7,abort=0.01,lock=0.05,validate=0.05,delay=0.01,spins=64"].
    Unmentioned fields keep their {!default}.  Raises [Invalid_argument] on
    unknown keys or rates outside [0, 1]. *)

val to_string : config -> string

val enable : config -> unit
(** Install the injector (reseeding the PRNG from [config.seed]) in
    [Runtime.plane.faults]. *)

val disable : unit -> unit
(** Clear [Runtime.plane.faults] and the configuration, and {!disarm} the
    caller.  Other domains' one-shots stay armed and fire once re-enabled. *)

val enabled : unit -> bool
val current : unit -> config option

val reseed : int -> unit
(** Reset the PRNG stream without touching the rates.  Raises
    [Invalid_argument] while disabled. *)

(** {1 Injected-fault accounting} *)

type kind =
  | Spurious_abort
  | Lock_fail
  | Validation_fail
  | Delay
  | Crash_domain
  | User_raise
  | Fsync_fail
  | Short_write

val all_kinds : kind list
val kind_name : kind -> string
val count : kind -> int
val counts : unit -> (kind * int) list
val reset_counts : unit -> unit

(** {1 Injection points} — called by the STM machinery. *)

val point : unit -> unit
(** The scheduling-point injector ([Runtime.plane.faults]): may spin-delay
    and may raise {!Control.Abort_tx} with reason {!Control.Injected}. *)

val inject_lock_fail : unit -> bool
(** [true]: the caller must treat this lock acquisition as failed.
    Consulted by {!Vlock.try_lock} (and the boosting lock table). *)

val inject_validation_fail : unit -> bool
(** [true]: the caller must treat this read-set validation as failed.
    Consulted by {!Rwsets.Rset.validate}. *)

val inject_fsync_fail : unit -> bool
(** [true]: the caller must treat this WAL fsync as failed (records stay
    unacknowledged until a later sync covers them).  Unlike the
    transactional faults above this is {e not} gated on being inside an
    attempt — the WAL runs after the attempt has committed. *)

val inject_short_write : unit -> bool
(** [true]: the caller must write only a prefix of this WAL flush and
    poison the log.  Not gated on being inside an attempt. *)

val enter_attempt : unit -> unit
(** Mark the current process as inside a transaction attempt; set by
    the attempt handler ({!Attempt.Make}) around each attempt.  Without it no fault fires, keeping
    backoff waits and non-transactional code unperturbed. *)

val leave_attempt : unit -> unit

(** {1 Crash and foreign-exception faults} *)

exception Injected_failure
(** The "user code raised" fault: deliberately {e not} a [Control]
    exception, so it exercises the engines' catch-all cleanup paths. *)

val arm_crash_after : points:int -> unit
(** Deterministic one-shot, per domain: after [points] further eligible
    scheduling points on the calling domain, raise {!Control.Crashed}
    (once).  Installs the injector even when no {!config} is active.
    Raises [Invalid_argument] if [points <= 0]. *)

val arm_raise_after : points:int -> unit
(** Same, raising {!Injected_failure} instead. *)

val disarm : unit -> unit
(** Cancel the calling domain's armed one-shot, if any.  ({!disable}
    does this for the caller; other domains' one-shots only pause until
    the injector is reinstalled.) *)
