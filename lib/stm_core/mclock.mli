(** Monotonic nanosecond clock ([CLOCK_MONOTONIC] via a C stub).

    Used for the latency histograms of {!Stats} and for benchmark timing
    windows; unlike [Unix.gettimeofday] it cannot jump when the wall clock
    is adjusted, and the external is [@@noalloc] so reading it does not
    disturb the hot path. *)

val now_ns : unit -> int64
(** Nanoseconds from an arbitrary fixed origin; strictly non-decreasing. *)

val elapsed_ns : int64 -> int
(** [elapsed_ns t0] is [now_ns () - t0] as an [int] (53+ bits is ample:
    2^62 ns is ~146 years). *)

val elapsed_ms : t0:int64 -> t1:int64 -> float
(** [t1 - t0] in milliseconds. *)
