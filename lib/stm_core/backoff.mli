(** Randomised exponential backoff: the retry loop's one contention
    policy.

    After an abort the transaction waits for a random number of relaxation
    steps drawn from a window that starts at 16 and doubles on every wait,
    up to {!max_window}.  Under the deterministic scheduler the wait
    degenerates to a scheduling point so that cooperative processes cannot
    spin forever.  Progress does not depend on the policy: the retry loop
    escalates to the serial-irrevocable fallback at {!Runtime.retry_cap}. *)

type t

val create : ?seed:int -> unit -> t
(** A fresh state with a window of 16.  Rivals should pass different
    seeds so that they draw different waits. *)

val once : t -> unit
(** Wait once and widen the window. *)

val window : t -> int
(** Current window size, for tests.  Starts at 16, doubles on every
    {!once} and never exceeds {!max_window}. *)

val max_window : int
(** Upper bound on the window (2{^14} relaxation steps). *)
