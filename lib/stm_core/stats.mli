(** Per-STM metrics: commit/abort counters, per-reason abort breakdown,
    and (behind {!set_detailed}) latency/footprint/retry histograms.

    Each STM implementation owns one [t].  Internally the counters are
    striped across cache-line-padded per-domain shards (indexed by domain
    id, masked into a fixed power-of-two range), so concurrent recording
    never ping-pongs a shared line; {!snapshot} merges the shards, so
    callers still see one logical counter set.  The histograms are
    lock-free fixed arrays of atomic buckets, so recording never allocates
    and never takes a lock. *)

(** {1 Detailed-metrics flag}

    Latency histograms need two monotonic-clock reads per attempt, so they
    are recorded only while the global flag is on.  When it is off the hot
    path pays a single load-and-branch ({!Retry_loop}) and nothing else. *)

val set_detailed : bool -> unit
val detailed_enabled : unit -> bool

(** {1 Log-bucketed histograms}

    Bucket 0 counts the value 0; bucket [i >= 1] counts values in
    [2^(i-1), 2^i).  Percentiles report a bucket's inclusive upper bound,
    an over-approximation by at most 2x. *)
module Hist : sig
  type t

  type snapshot = int array
  (** Bucket counts.  Treat as immutable. *)

  val buckets : int

  val create : unit -> t

  val record : t -> int -> unit
  (** Record one sample; negative values count as 0. *)

  val snapshot : t -> snapshot
  val reset : t -> unit

  val bucket_of : int -> int

  val upper_bound : int -> int
  (** Inclusive upper bound of a bucket. *)

  val empty : unit -> snapshot
  val add : snapshot -> snapshot -> snapshot
  val count : snapshot -> int

  val percentile : snapshot -> float -> int
  (** [percentile s p] for [p] in (0, 100]: the bucket upper bound at or
      below which [p]% of samples fall; 0 when the histogram is empty. *)

  val max_value : snapshot -> int
  (** Upper bound of the highest non-empty bucket; 0 when empty. *)
end

type t

type snapshot = {
  commits : int;
  aborts : int;
  starvations : int;  (** retry caps exhausted (escalations or raises) *)
  fallbacks : int;    (** serial-irrevocable fallback entries *)
  timeouts : int;     (** transactions abandoned past their deadline *)
  read_ws_hits : int;   (** transactional reads served from the write set *)
  read_ws_misses : int; (** transactional reads that missed the write set *)
  by_reason : (Control.reason * int) list;  (** aborts broken down by reason *)
  commit_latency_ns : Hist.snapshot;  (** duration of committing attempts *)
  abort_latency_ns : Hist.snapshot;   (** duration of aborted attempts *)
  read_set_size : Hist.snapshot;   (** entries at commit, committed tx only *)
  write_set_size : Hist.snapshot;  (** entries at commit, committed tx only *)
  retry_depth : Hist.snapshot;  (** aborted attempts before each commit *)
  validation_len : Hist.snapshot;  (** entries examined per validation scan *)
}

val create : unit -> t

val record_commit : t -> unit
val record_abort : t -> Control.reason -> unit

val record_starvation : t -> unit
(** A transaction exhausted {!Runtime.retry_cap}.  Counted whether the
    outcome is an escalation to the serial fallback or a raised
    {!Control.Starvation}. *)

val record_fallback : t -> unit
(** A transaction entered the serial-irrevocable fallback. *)

val record_timeout : t -> unit
(** A transaction gave up past its {!Runtime.tx_timeout_ns} deadline. *)

(** The detailed recorders are unconditional; callers guard on
    {!detailed_enabled} so the clock is not even read when metrics are
    off. *)

val record_commit_latency : t -> int -> unit
val record_abort_latency : t -> int -> unit
val record_rwset_sizes : t -> reads:int -> writes:int -> unit
val record_retry_depth : t -> int -> unit

val record_read_ws_hit : t -> unit
(** A transactional read found its location in the write set. *)

val record_read_ws_miss : t -> unit
(** A transactional read missed the write set (summary word or lookup). *)

val record_validation_len : t -> int -> unit
(** Number of read-set entries a validation scan examined (suffix length
    for incremental validation, full length otherwise). *)

val snapshot : t -> snapshot
val reset : t -> unit

val empty_snapshot : unit -> snapshot
(** Identity element of {!add}. *)

val add : snapshot -> snapshot -> snapshot
(** Pointwise sum — commutative and associative with {!empty_snapshot} as
    identity, so per-run snapshots can be folded into per-point totals. *)

(** {1 Recovery counters}

    Process-global (not per-STM): orphan steals happen in the shared lock
    paths below any engine instance.  Reported additively in run JSON when
    recovery is enabled. *)

type recovery_counters = {
  orphan_steals : int;     (** locks reclaimed from dead/stale owners *)
  lease_expiries : int;    (** steals whose victim was stale, not dead *)
  poisoned_commits : int;  (** doomed victims aborted at their poison check *)
}

val record_orphan_steal : unit -> unit
val record_lease_expiry : unit -> unit
val record_poisoned_commit : unit -> unit
val recovery_counters : unit -> recovery_counters
val reset_recovery_counters : unit -> unit

(** {1 Durability counters}

    Process-global (not per-STM): the write-ahead log is one process-wide
    log below any engine instance.  Reported additively in run JSON when
    durability is enabled. *)

type durable_counters = {
  durable_commits : int;  (** commits that staged at least one entry *)
  wal_appends : int;  (** records enqueued to the WAL buffer *)
  wal_syncs : int;  (** completed fsyncs *)
  wal_sync_failures : int;  (** injected/real fsync failures *)
  wal_short_writes : int;  (** injected short writes (log poisoned) *)
}

val record_durable_commit : unit -> unit
val record_wal_append : unit -> unit
val record_wal_sync : unit -> unit
val record_wal_sync_failure : unit -> unit
val record_wal_short_write : unit -> unit
val durable_counters : unit -> durable_counters
val reset_durable_counters : unit -> unit

val abort_rate : snapshot -> float
(** aborts / (aborts + commits), or 0 when no transaction ran. *)
