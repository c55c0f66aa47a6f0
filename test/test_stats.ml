open Stm_core

let test_counting () =
  let s = Stats.create () in
  Stats.record_commit s;
  Stats.record_commit s;
  Stats.record_abort s Control.Validation_failed;
  Stats.record_abort s Control.Lock_contention;
  Stats.record_abort s Control.Validation_failed;
  let snap = Stats.snapshot s in
  Alcotest.(check int) "commits" 2 snap.Stats.commits;
  Alcotest.(check int) "aborts" 3 snap.Stats.aborts;
  Alcotest.(check int) "validation aborts" 2
    (List.assoc Control.Validation_failed snap.Stats.by_reason);
  Alcotest.(check (float 1e-9)) "abort rate" 0.6 (Stats.abort_rate snap);
  Stats.reset s;
  let snap = Stats.snapshot s in
  Alcotest.(check int) "commits after reset" 0 snap.Stats.commits;
  Alcotest.(check (float 1e-9)) "rate on empty" 0.0 (Stats.abort_rate snap)

let test_reason_index_bijective () =
  let indices = List.map Control.reason_index Control.all_reasons in
  Alcotest.(check int) "count" Control.reason_count (List.length indices);
  Alcotest.(check (list int)) "indices are 0..n-1"
    (List.init Control.reason_count Fun.id)
    (List.sort compare indices)

let test_parallel_counting () =
  let s = Stats.create () in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Stats.record_commit s;
              Stats.record_abort s Control.Read_locked
            done))
  in
  List.iter Domain.join domains;
  let snap = Stats.snapshot s in
  Alcotest.(check int) "parallel commits" 4000 snap.Stats.commits;
  Alcotest.(check int) "parallel aborts" 4000 snap.Stats.aborts

(* Striped recording: each domain lands in its own shard (modulo mask
   collisions); the merged snapshot must equal the per-domain ground
   truth, and histogram bucket totals must be preserved by the merge. *)
let test_striped_ground_truth () =
  let s = Stats.create () in
  let counts = [| 500; 700; 900; 1100 |] in
  let domains =
    List.init 4 (fun k ->
        Domain.spawn (fun () ->
            for i = 1 to counts.(k) do
              Stats.record_commit s;
              if i mod 2 = 0 then Stats.record_abort s Control.Read_locked;
              Stats.record_commit_latency s i
            done))
  in
  List.iter Domain.join domains;
  let total = Array.fold_left ( + ) 0 counts in
  let snap = Stats.snapshot s in
  Alcotest.(check int) "merged commits" total snap.Stats.commits;
  Alcotest.(check int) "merged aborts"
    (Array.fold_left (fun acc n -> acc + (n / 2)) 0 counts)
    snap.Stats.aborts;
  Alcotest.(check int) "merged by_reason" snap.Stats.aborts
    (List.assoc Control.Read_locked snap.Stats.by_reason);
  (* Per-bucket ground truth, replayed sequentially. *)
  let expected = Array.make Stats.Hist.buckets 0 in
  Array.iter
    (fun n ->
      for i = 1 to n do
        let b = Stats.Hist.bucket_of i in
        expected.(b) <- expected.(b) + 1
      done)
    counts;
  Alcotest.(check (array int)) "merged hist buckets" expected
    snap.Stats.commit_latency_ns;
  Alcotest.(check int) "merged hist count" total
    (Stats.Hist.count snap.Stats.commit_latency_ns)

let record_one s n =
  let n = abs n in
  match n mod 8 with
  | 0 -> Stats.record_commit s
  | 1 ->
    Stats.record_abort s
      (List.nth Control.all_reasons (n mod Control.reason_count))
  | 2 -> Stats.record_commit_latency s (n * 17)
  | 3 -> Stats.record_abort_latency s (n * 13)
  | 4 -> Stats.record_rwset_sizes s ~reads:(n mod 100) ~writes:(n mod 50)
  | 5 -> Stats.record_retry_depth s (n mod 20)
  | 6 ->
    (* n mod 8 = 6 forces n even, so branch on a higher bit. *)
    if (n lsr 3) land 1 = 0 then Stats.record_read_ws_hit s
    else Stats.record_read_ws_miss s
  | _ -> Stats.record_validation_len s (n mod 200)

(* The striped implementation is observationally equivalent to a
   monolithic counter set: the same ops recorded from one domain (one
   shard) and spread over four domains (several shards) snapshot
   identically. *)
let prop_striped_equals_monolithic =
  QCheck.Test.make
    ~name:"striped recording merges to the monolithic snapshot" ~count:25
    QCheck.(list small_int)
    (fun ops ->
      let mono =
        let t = Stats.create () in
        List.iter (record_one t) ops;
        Stats.snapshot t
      in
      let s = Stats.create () in
      let arr = Array.of_list ops in
      let domains =
        List.init 4 (fun k ->
            Domain.spawn (fun () ->
                Array.iteri (fun i n -> if i mod 4 = k then record_one s n) arr))
      in
      List.iter Domain.join domains;
      Stats.snapshot s = mono)

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms                                             *)

let test_hist_buckets () =
  let module H = Stats.Hist in
  (* Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i). *)
  Alcotest.(check int) "bucket of 0" 0 (H.bucket_of 0);
  Alcotest.(check int) "bucket of negatives clamps to 0" 0 (H.bucket_of (-5));
  Alcotest.(check int) "bucket of 1" 1 (H.bucket_of 1);
  Alcotest.(check int) "bucket of 2" 2 (H.bucket_of 2);
  Alcotest.(check int) "bucket of 3" 2 (H.bucket_of 3);
  Alcotest.(check int) "bucket of 4" 3 (H.bucket_of 4);
  Alcotest.(check int) "bucket of 1000" 10 (H.bucket_of 1000);
  Alcotest.(check int) "bucket of max_int" (H.buckets - 1)
    (H.bucket_of max_int);
  Alcotest.(check int) "upper bound of 0" 0 (H.upper_bound 0);
  Alcotest.(check int) "upper bound of 2" 3 (H.upper_bound 2);
  Alcotest.(check int) "upper bound of 10" 1023 (H.upper_bound 10);
  let h = H.create () in
  List.iter (H.record h) [ 0; 1; 2; 3; 4; 1000 ];
  let s = H.snapshot h in
  Alcotest.(check int) "count" 6 (H.count s);
  Alcotest.(check int) "bucket 0 holds the zero" 1 s.(0);
  Alcotest.(check int) "bucket 1 holds the one" 1 s.(1);
  Alcotest.(check int) "bucket 2 holds 2 and 3" 2 s.(2);
  Alcotest.(check int) "bucket 3 holds the four" 1 s.(3);
  Alcotest.(check int) "bucket 10 holds the thousand" 1 s.(10);
  Alcotest.(check int) "max_value" 1023 (H.max_value s);
  H.reset h;
  Alcotest.(check int) "count after reset" 0 (H.count (H.snapshot h));
  Alcotest.(check int) "max_value on empty" 0 (H.max_value (H.snapshot h))

let test_hist_percentiles () =
  let module H = Stats.Hist in
  let h = H.create () in
  for _ = 1 to 90 do H.record h 1 done;
  for _ = 1 to 10 do H.record h 1000 done;
  let s = H.snapshot h in
  Alcotest.(check int) "p50 in the low bucket" 1 (H.percentile s 50.0);
  Alcotest.(check int) "p90 still in the low bucket" 1 (H.percentile s 90.0);
  Alcotest.(check int) "p99 in the high bucket" 1023 (H.percentile s 99.0);
  Alcotest.(check int) "p100 = max" 1023 (H.percentile s 100.0);
  Alcotest.(check int) "max_value" 1023 (H.max_value s);
  Alcotest.(check int) "percentile of empty is 0"
    0 (H.percentile (H.empty ()) 99.0)

(* ------------------------------------------------------------------ *)
(* Stats.add is a commutative monoid on snapshots                      *)

(* Interpret an arbitrary int list as a recording program, giving qcheck a
   cheap generator of arbitrary snapshots. *)
let snap_of_ops ops =
  let s = Stats.create () in
  List.iter (record_one s) ops;
  Stats.snapshot s

let prop_add_identity =
  QCheck.Test.make ~name:"Stats.add: empty_snapshot is the identity"
    ~count:100
    QCheck.(list small_int)
    (fun ops ->
      let s = snap_of_ops ops in
      Stats.add (Stats.empty_snapshot ()) s = s
      && Stats.add s (Stats.empty_snapshot ()) = s)

let prop_add_commutative =
  QCheck.Test.make ~name:"Stats.add commutes" ~count:100
    QCheck.(pair (list small_int) (list small_int))
    (fun (a, b) ->
      let sa = snap_of_ops a and sb = snap_of_ops b in
      Stats.add sa sb = Stats.add sb sa)

let prop_add_associative =
  QCheck.Test.make ~name:"Stats.add associates" ~count:50
    QCheck.(triple (list small_int) (list small_int) (list small_int))
    (fun (a, b, c) ->
      let sa = snap_of_ops a and sb = snap_of_ops b and sc = snap_of_ops c in
      Stats.add sa (Stats.add sb sc) = Stats.add (Stats.add sa sb) sc)

let prop_add_totals =
  QCheck.Test.make ~name:"Stats.add sums every counter" ~count:100
    QCheck.(pair (list small_int) (list small_int))
    (fun (a, b) ->
      let sa = snap_of_ops a and sb = snap_of_ops b in
      let s = Stats.add sa sb in
      s.Stats.commits = sa.Stats.commits + sb.Stats.commits
      && s.Stats.aborts = sa.Stats.aborts + sb.Stats.aborts
      && List.fold_left (fun acc (_, n) -> acc + n) 0 s.Stats.by_reason
         = s.Stats.aborts
      && Stats.Hist.count s.Stats.commit_latency_ns
         = Stats.Hist.count sa.Stats.commit_latency_ns
           + Stats.Hist.count sb.Stats.commit_latency_ns
      && Stats.Hist.count s.Stats.retry_depth
         = Stats.Hist.count sa.Stats.retry_depth
           + Stats.Hist.count sb.Stats.retry_depth)

let test_detailed_flag_plumbing () =
  let was = Stats.detailed_enabled () in
  Stats.set_detailed true;
  Alcotest.(check bool) "on" true (Stats.detailed_enabled ());
  Stats.set_detailed false;
  Alcotest.(check bool) "off" false (Stats.detailed_enabled ());
  Stats.set_detailed was

(* ------------------------------------------------------------------ *)
(* JSON report: golden shape test                                      *)

(* A deterministic figure_result with hand-computable histogram contents;
   the expected string below pins the report schema.  If you change the
   schema intentionally, bump Report.schema_version and update the golden
   (the failure output prints the actual). *)
let golden_result () =
  let s = Stats.create () in
  Stats.record_commit s;
  Stats.record_commit s;
  Stats.record_abort s Control.Validation_failed;
  Stats.record_commit_latency s 100;
  Stats.record_commit_latency s 200;
  Stats.record_abort_latency s 50;
  Stats.record_rwset_sizes s ~reads:3 ~writes:1;
  Stats.record_rwset_sizes s ~reads:4 ~writes:2;
  Stats.record_retry_depth s 0;
  Stats.record_retry_depth s 1;
  Stats.record_read_ws_hit s;
  Stats.record_read_ws_hit s;
  Stats.record_read_ws_miss s;
  Stats.record_validation_len s 3;
  Stats.record_validation_len s 5;
  let snap = Stats.snapshot s in
  let p =
    { Harness.Sweep.threads = 2; ops_per_ms = 1234.5; abort_rate = 0.25;
      total_ops = 10; total_commits = 2; total_aborts = 1;
      elapsed_ms = 100.5; runs = 1; stats = snap }
  in
  { Harness.Figures.figure = Harness.Figures.F6a;
    cfg = Harness.Workload.paper ~size_exp:4 ~bulk_ratio:0.05 ();
    threads = [ 2 ]; seed = 7; duration = 0.1; runs = 1;
    series =
      [ { Harness.Figures.series_name = "OE-STM"; points = [ p ] } ] }

let golden_json =
  {|{
  "schema_version": 2,
  "config": {
    "clock": "gv1",
    "retry_cap": 64,
    "starvation_mode": "fallback",
    "tx_timeout_ns": null,
    "faults": null
  },
  "sanitizer": null,
  "recovery": null,
  "durability": null,
  "figures": [
    {
      "figure": "6a",
      "title": "Figure 6(a): LinkedListSet, 5% addAll/removeAll",
      "workload": {
        "size_exp": 4,
        "update_ratio": 0.2,
        "bulk_ratio": 0.05
      },
      "seed": 7,
      "runs": 1,
      "duration_s": 0.1,
      "threads": [
        2
      ],
      "series": [
        {
          "name": "OE-STM",
          "points": [
            {
              "threads": 2,
              "ops_per_ms": 1234.5,
              "abort_rate": 0.25,
              "total_ops": 10,
              "elapsed_ms": 100.5,
              "runs": 1,
              "commits": 2,
              "aborts": 1,
              "starvations": 0,
              "fallbacks": 0,
              "timeouts": 0,
              "read_ws_hits": 2,
              "read_ws_misses": 1,
              "aborts_by_reason": {
                "validation-failed": 1
              },
              "commit_latency_ns": {
                "count": 2,
                "p50": 127,
                "p90": 255,
                "p99": 255,
                "max": 255
              },
              "abort_latency_ns": {
                "count": 1,
                "p50": 63,
                "p90": 63,
                "p99": 63,
                "max": 63
              },
              "retry_depth": {
                "count": 2,
                "p50": 0,
                "p90": 1,
                "p99": 1,
                "max": 1
              },
              "read_set_size": {
                "count": 2,
                "p50": 3,
                "p90": 7,
                "p99": 7,
                "max": 7
              },
              "write_set_size": {
                "count": 2,
                "p50": 1,
                "p90": 3,
                "p99": 3,
                "max": 3
              },
              "validation_len": {
                "count": 2,
                "p50": 3,
                "p90": 7,
                "p99": 7,
                "max": 7
              }
            }
          ]
        }
      ]
    }
  ]
}
|}

let test_json_golden () =
  (* The "config" object reflects process-wide runtime state; pin it to
     the shipped defaults for the duration of the check so the golden is
     independent of which suites ran first. *)
  let saved_clock = Clock.current_policy () in
  let saved_cap = !Runtime.retry_cap in
  let saved_mode = !Runtime.starvation_mode in
  let saved_timeout = !Runtime.tx_timeout_ns in
  let saved_faults = Faults.current () in
  let saved_san = Sanitizer.enabled () in
  Clock.set_policy Runtime.GV1;
  Runtime.retry_cap := 64;
  Runtime.starvation_mode := `Fallback;
  Runtime.tx_timeout_ns := None;
  Faults.disable ();
  Sanitizer.disable ();
  let restore () =
    Clock.set_policy saved_clock;
    Runtime.retry_cap := saved_cap;
    Runtime.starvation_mode := saved_mode;
    Runtime.tx_timeout_ns := saved_timeout;
    if saved_san then Sanitizer.enable ();
    match saved_faults with None -> () | Some c -> Faults.enable c
  in
  let actual =
    Fun.protect ~finally:restore (fun () ->
        Harness.Report.to_string (Harness.Report.report [ golden_result () ]))
  in
  Alcotest.(check string) "report JSON shape" golden_json actual;
  (* And the emitted report must parse back as JSON. *)
  match Harness.Report.of_string actual with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "golden report does not parse: %s" e

let test_json_escaping_and_parsing () =
  let module R = Harness.Report in
  Alcotest.(check string) "string escaping" "\"a\\\"b\\\\c\\nd\\u0001\""
    (R.to_string ~indent:0 (R.Str "a\"b\\c\nd\001"));
  (match R.of_string "\"a\\\"b\\\\c\\nd\\u0001\"" with
  | Ok (R.Str s) -> Alcotest.(check string) "roundtrip" "a\"b\\c\nd\001" s
  | _ -> Alcotest.fail "string did not roundtrip");
  (match R.of_string "[1, 2.5, true, null, {\"k\": []}]" with
  | Ok (R.List [ R.Int 1; R.Float 2.5; R.Bool true; R.Null; R.Obj [ ("k", R.List []) ] ]) -> ()
  | Ok _ -> Alcotest.fail "parsed wrong structure"
  | Error e -> Alcotest.failf "parse error: %s" e);
  (match R.of_string "{broken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed JSON");
  (* Non-finite floats must not produce invalid JSON. *)
  Alcotest.(check string) "nan is null" "null"
    (R.to_string ~indent:0 (R.Float Float.nan))

let suite =
  [ Alcotest.test_case "counting and rate" `Quick test_counting;
    Alcotest.test_case "reason indexing" `Quick test_reason_index_bijective;
    Alcotest.test_case "parallel counting" `Slow test_parallel_counting;
    Alcotest.test_case "striped ground truth (4 domains)" `Slow
      test_striped_ground_truth;
    QCheck_alcotest.to_alcotest prop_striped_equals_monolithic;
    Alcotest.test_case "histogram buckets" `Quick test_hist_buckets;
    Alcotest.test_case "histogram percentiles" `Quick test_hist_percentiles;
    QCheck_alcotest.to_alcotest prop_add_identity;
    QCheck_alcotest.to_alcotest prop_add_commutative;
    QCheck_alcotest.to_alcotest prop_add_associative;
    QCheck_alcotest.to_alcotest prop_add_totals;
    Alcotest.test_case "detailed flag plumbing" `Quick
      test_detailed_flag_plumbing;
    Alcotest.test_case "JSON report golden shape" `Quick test_json_golden;
    Alcotest.test_case "JSON escaping and parsing" `Quick
      test_json_escaping_and_parsing ]
