(* Counters are striped across a fixed power-of-two number of cache-line-
   padded shards, indexed by [domain id land mask]: recording never shares
   a line across domains (modulo mask collisions when more domains than
   stripes run), and the masking keeps the table bounded even though
   domain ids grow without bound across a program run (every spawn gets a
   fresh id).  [snapshot] merges the shards, so the public interface is
   still one logical counter set per STM instance. *)

(* Detailed metrics (latency histograms, footprints, retry depths) cost two
   clock reads and a handful of atomic increments per transaction attempt,
   so they sit behind this global flag: when it is off, the hot path pays a
   single load-and-branch in Retry_loop and nothing else. *)
let detailed = Atomic.make false
let set_detailed b = Atomic.set detailed b
let detailed_enabled () = Atomic.get detailed

module Hist = struct
  (* Log-bucketed histogram over non-negative ints.  Bucket 0 counts the
     value 0; bucket i (i >= 1) counts values in [2^(i-1), 2^i).  63 buckets
     cover the whole non-negative [int] range on 64-bit, so recording never
     clamps.  The representative reported for a bucket is its inclusive
     upper bound, so percentiles over-approximate by at most 2x — the right
     bias for latency numbers read on a log scale. *)
  let buckets = 63

  type t = int Atomic.t array

  type snapshot = int array

  let create () : t = Array.init buckets (fun _ -> Atomic.make 0)

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
      bits v 0
    end

  let upper_bound i = if i = 0 then 0 else (1 lsl i) - 1

  let record (t : t) v = ignore (Atomic.fetch_and_add t.(bucket_of v) 1)

  let snapshot (t : t) : snapshot = Array.map Atomic.get t

  let reset (t : t) = Array.iter (fun c -> Atomic.set c 0) t

  let count (s : snapshot) = Array.fold_left ( + ) 0 s

  let empty () : snapshot = Array.make buckets 0

  let add (a : snapshot) (b : snapshot) : snapshot =
    Array.init buckets (fun i -> a.(i) + b.(i))

  (* The value at or below which [p] percent of the recorded samples fall
     (reported as the bucket's upper bound).  [p] in (0, 100]. *)
  let percentile (s : snapshot) p =
    let n = count s in
    if n = 0 then 0
    else begin
      let rank =
        let r = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
        max 1 (min n r)
      in
      let rec go i acc =
        if i >= buckets then upper_bound (buckets - 1)
        else
          let acc = acc + s.(i) in
          if acc >= rank then upper_bound i else go (i + 1) acc
      in
      go 0 0
    end

  let max_value (s : snapshot) =
    let top = ref 0 in
    Array.iteri (fun i n -> if n > 0 then top := i) s;
    if s.(!top) = 0 then 0 else upper_bound !top
end

type shard = {
  commits : int Atomic.t;
  aborts : int Atomic.t;
  starvations : int Atomic.t;
  fallbacks : int Atomic.t;
  timeouts : int Atomic.t;
  read_ws_hits : int Atomic.t;
  read_ws_misses : int Atomic.t;
  by_reason : int Atomic.t array;
  commit_latency_ns : Hist.t;
  abort_latency_ns : Hist.t;
  read_set_size : Hist.t;
  write_set_size : Hist.t;
  retry_depth : Hist.t;
  validation_len : Hist.t;
}

type t = shard array

(* Power of two covering the machine's domains, clamped to [8, 64]:
   masking the domain id into this range keeps one shard per domain on
   typical machines without letting the per-instance footprint grow with
   the (unbounded) domain-id space. *)
let stripes =
  let cores = Domain.recommended_domain_count () in
  let rec up n = if n >= cores || n >= 64 then n else up (n * 2) in
  up 8

let stripe_mask = stripes - 1

let shard (t : t) = t.((Domain.self () :> int) land stripe_mask)

type snapshot = {
  commits : int;
  aborts : int;
  starvations : int;
  fallbacks : int;
  timeouts : int;
  read_ws_hits : int;
  read_ws_misses : int;
  by_reason : (Control.reason * int) list;
  commit_latency_ns : Hist.snapshot;
  abort_latency_ns : Hist.snapshot;
  read_set_size : Hist.snapshot;
  write_set_size : Hist.snapshot;
  retry_depth : Hist.snapshot;
  validation_len : Hist.snapshot;
}

(* The five scalar counters are the per-attempt hot spots, so each gets
   its own padded cell; the histograms and the per-reason array are bulky
   and colder (detailed mode / abort path), so only the shard record
   itself is padded for them. *)
let make_shard () : shard =
  Padding.copy_as_padded
    ({ commits = Padding.atomic 0;
      aborts = Padding.atomic 0;
      starvations = Padding.atomic 0;
      fallbacks = Padding.atomic 0;
      timeouts = Padding.atomic 0;
      read_ws_hits = Padding.atomic 0;
      read_ws_misses = Padding.atomic 0;
      by_reason = Array.init Control.reason_count (fun _ -> Atomic.make 0);
      commit_latency_ns = Hist.create ();
      abort_latency_ns = Hist.create ();
      read_set_size = Hist.create ();
      write_set_size = Hist.create ();
      retry_depth = Hist.create ();
      validation_len = Hist.create () }
      : shard)

let create () : t = Array.init stripes (fun _ -> make_shard ())

let record_commit (t : t) = ignore (Atomic.fetch_and_add (shard t).commits 1)

let record_abort (t : t) reason =
  let sh = shard t in
  ignore (Atomic.fetch_and_add sh.aborts 1);
  ignore (Atomic.fetch_and_add sh.by_reason.(Control.reason_index reason) 1)

let record_starvation (t : t) =
  ignore (Atomic.fetch_and_add (shard t).starvations 1)

let record_fallback (t : t) =
  ignore (Atomic.fetch_and_add (shard t).fallbacks 1)

let record_timeout (t : t) =
  ignore (Atomic.fetch_and_add (shard t).timeouts 1)

let record_commit_latency (t : t) ns = Hist.record (shard t).commit_latency_ns ns
let record_abort_latency (t : t) ns = Hist.record (shard t).abort_latency_ns ns

let record_rwset_sizes (t : t) ~reads ~writes =
  let sh = shard t in
  Hist.record sh.read_set_size reads;
  Hist.record sh.write_set_size writes

let record_retry_depth (t : t) n = Hist.record (shard t).retry_depth n

let record_read_ws_hit (t : t) =
  ignore (Atomic.fetch_and_add (shard t).read_ws_hits 1)

let record_read_ws_miss (t : t) =
  ignore (Atomic.fetch_and_add (shard t).read_ws_misses 1)

let record_validation_len (t : t) n = Hist.record (shard t).validation_len n

let snapshot (t : t) =
  let sum (f : shard -> int Atomic.t) =
    Array.fold_left (fun acc sh -> acc + Atomic.get (f sh)) 0 t
  in
  let merge_hist (f : shard -> Hist.t) =
    Array.fold_left (fun acc sh -> Hist.add acc (Hist.snapshot (f sh)))
      (Hist.empty ()) t
  in
  let by_reason =
    List.filter_map
      (fun r ->
        let i = Control.reason_index r in
        let n = sum (fun sh -> sh.by_reason.(i)) in
        if n = 0 then None else Some (r, n))
      Control.all_reasons
  in
  { commits = sum (fun sh -> sh.commits);
    aborts = sum (fun sh -> sh.aborts);
    starvations = sum (fun sh -> sh.starvations);
    fallbacks = sum (fun sh -> sh.fallbacks);
    timeouts = sum (fun sh -> sh.timeouts);
    read_ws_hits = sum (fun sh -> sh.read_ws_hits);
    read_ws_misses = sum (fun sh -> sh.read_ws_misses);
    by_reason;
    commit_latency_ns = merge_hist (fun sh -> sh.commit_latency_ns);
    abort_latency_ns = merge_hist (fun sh -> sh.abort_latency_ns);
    read_set_size = merge_hist (fun sh -> sh.read_set_size);
    write_set_size = merge_hist (fun sh -> sh.write_set_size);
    retry_depth = merge_hist (fun sh -> sh.retry_depth);
    validation_len = merge_hist (fun sh -> sh.validation_len) }

let reset (t : t) =
  Array.iter
    (fun (sh : shard) ->
      Atomic.set sh.commits 0;
      Atomic.set sh.aborts 0;
      Atomic.set sh.starvations 0;
      Atomic.set sh.fallbacks 0;
      Atomic.set sh.timeouts 0;
      Atomic.set sh.read_ws_hits 0;
      Atomic.set sh.read_ws_misses 0;
      Array.iter (fun c -> Atomic.set c 0) sh.by_reason;
      Hist.reset sh.commit_latency_ns;
      Hist.reset sh.abort_latency_ns;
      Hist.reset sh.read_set_size;
      Hist.reset sh.write_set_size;
      Hist.reset sh.retry_depth;
      Hist.reset sh.validation_len)
    t

let empty_snapshot () : snapshot =
  { commits = 0;
    aborts = 0;
    starvations = 0;
    fallbacks = 0;
    timeouts = 0;
    read_ws_hits = 0;
    read_ws_misses = 0;
    by_reason = [];
    commit_latency_ns = Hist.empty ();
    abort_latency_ns = Hist.empty ();
    read_set_size = Hist.empty ();
    write_set_size = Hist.empty ();
    retry_depth = Hist.empty ();
    validation_len = Hist.empty () }

(* Merge in canonical [Control.all_reasons] order so that [add] is
   commutative up to structural equality, not just up to reordering. *)
let add (a : snapshot) (b : snapshot) : snapshot =
  let count reasons r =
    match List.assoc_opt r reasons with Some n -> n | None -> 0
  in
  let by_reason =
    List.filter_map
      (fun r ->
        let n = count a.by_reason r + count b.by_reason r in
        if n = 0 then None else Some (r, n))
      Control.all_reasons
  in
  { commits = a.commits + b.commits;
    aborts = a.aborts + b.aborts;
    starvations = a.starvations + b.starvations;
    fallbacks = a.fallbacks + b.fallbacks;
    timeouts = a.timeouts + b.timeouts;
    read_ws_hits = a.read_ws_hits + b.read_ws_hits;
    read_ws_misses = a.read_ws_misses + b.read_ws_misses;
    by_reason;
    commit_latency_ns = Hist.add a.commit_latency_ns b.commit_latency_ns;
    abort_latency_ns = Hist.add a.abort_latency_ns b.abort_latency_ns;
    read_set_size = Hist.add a.read_set_size b.read_set_size;
    write_set_size = Hist.add a.write_set_size b.write_set_size;
    retry_depth = Hist.add a.retry_depth b.retry_depth;
    validation_len = Hist.add a.validation_len b.validation_len }

(* Recovery counters are process-global rather than per-STM-instance: the
   steal sites live in the shared lock paths (Rwsets, Tvar, Runtime.Serial)
   below any engine instance, so there is no [t] to thread to them.  Three
   padded cells; contention is negligible (steals are rare by design). *)
type recovery_counters = {
  orphan_steals : int;
  lease_expiries : int;
  poisoned_commits : int;
}

let orphan_steals_c = Padding.atomic 0
let lease_expiries_c = Padding.atomic 0
let poisoned_commits_c = Padding.atomic 0

let record_orphan_steal () = ignore (Atomic.fetch_and_add orphan_steals_c 1)
let record_lease_expiry () = ignore (Atomic.fetch_and_add lease_expiries_c 1)

let record_poisoned_commit () =
  ignore (Atomic.fetch_and_add poisoned_commits_c 1)

let recovery_counters () =
  { orphan_steals = Atomic.get orphan_steals_c;
    lease_expiries = Atomic.get lease_expiries_c;
    poisoned_commits = Atomic.get poisoned_commits_c }

let reset_recovery_counters () =
  Atomic.set orphan_steals_c 0;
  Atomic.set lease_expiries_c 0;
  Atomic.set poisoned_commits_c 0

(* Durability counters are process-global for the same reason: the WAL is
   one process-wide log below any engine instance, and [Durable.on_commit]
   has no [t] in hand. *)
type durable_counters = {
  durable_commits : int;  (** commits that staged at least one entry *)
  wal_appends : int;  (** records enqueued to the WAL buffer *)
  wal_syncs : int;  (** completed fsyncs *)
  wal_sync_failures : int;  (** injected/real fsync failures *)
  wal_short_writes : int;  (** injected short writes (log poisoned) *)
}

let durable_commits_c = Padding.atomic 0
let wal_appends_c = Padding.atomic 0
let wal_syncs_c = Padding.atomic 0
let wal_sync_failures_c = Padding.atomic 0
let wal_short_writes_c = Padding.atomic 0

let record_durable_commit () = ignore (Atomic.fetch_and_add durable_commits_c 1)
let record_wal_append () = ignore (Atomic.fetch_and_add wal_appends_c 1)
let record_wal_sync () = ignore (Atomic.fetch_and_add wal_syncs_c 1)

let record_wal_sync_failure () =
  ignore (Atomic.fetch_and_add wal_sync_failures_c 1)

let record_wal_short_write () =
  ignore (Atomic.fetch_and_add wal_short_writes_c 1)

let durable_counters () =
  { durable_commits = Atomic.get durable_commits_c;
    wal_appends = Atomic.get wal_appends_c;
    wal_syncs = Atomic.get wal_syncs_c;
    wal_sync_failures = Atomic.get wal_sync_failures_c;
    wal_short_writes = Atomic.get wal_short_writes_c }

let reset_durable_counters () =
  Atomic.set durable_commits_c 0;
  Atomic.set wal_appends_c 0;
  Atomic.set wal_syncs_c 0;
  Atomic.set wal_sync_failures_c 0;
  Atomic.set wal_short_writes_c 0

let abort_rate (s : snapshot) =
  let total = s.commits + s.aborts in
  if total = 0 then 0.0 else float_of_int s.aborts /. float_of_int total
