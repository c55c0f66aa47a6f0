(* The benchmark harness: PRNG determinism, workload mix, figure wiring and
   a miniature end-to-end sweep. *)

let test_prng_deterministic () =
  let a = Harness.Prng.create ~seed:1 and b = Harness.Prng.create ~seed:1 in
  let xs = List.init 100 (fun _ -> Harness.Prng.next a) in
  let ys = List.init 100 (fun _ -> Harness.Prng.next b) in
  Alcotest.(check bool) "same seed, same stream" true (xs = ys);
  let c = Harness.Prng.create ~seed:2 in
  let zs = List.init 100 (fun _ -> Harness.Prng.next c) in
  Alcotest.(check bool) "different seed, different stream" false (xs = zs)

let test_prng_split_independent () =
  let root = Harness.Prng.create ~seed:1 in
  let s0 = Harness.Prng.split root ~index:0 in
  let s1 = Harness.Prng.split root ~index:1 in
  let xs = List.init 50 (fun _ -> Harness.Prng.next s0) in
  let ys = List.init 50 (fun _ -> Harness.Prng.next s1) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let prop_prng_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Harness.Prng.create ~seed in
      List.for_all
        (fun _ ->
          let v = Harness.Prng.int rng bound in
          v >= 0 && v < bound)
        (List.init 50 Fun.id))

let test_workload_mix () =
  let cfg = Harness.Workload.paper ~size_exp:10 ~bulk_ratio:0.05 () in
  let rng = Harness.Prng.create ~seed:3 in
  let n = 100_000 in
  let contains = ref 0 and single = ref 0 and bulk = ref 0 in
  for _ = 1 to n do
    match Harness.Workload.gen_op cfg rng with
    | Harness.Workload.Contains _ -> incr contains
    | Harness.Workload.Add _ | Harness.Workload.Remove _ -> incr single
    | Harness.Workload.Add_all _ | Harness.Workload.Remove_all _ -> incr bulk
  done;
  let pct x = float_of_int x /. float_of_int n in
  Alcotest.(check bool) "~80% contains" true
    (abs_float (pct !contains -. 0.80) < 0.01);
  Alcotest.(check bool) "~15% single updates" true
    (abs_float (pct !single -. 0.15) < 0.01);
  Alcotest.(check bool) "~5% bulk updates" true
    (abs_float (pct !bulk -. 0.05) < 0.005)

let test_workload_keys_in_range () =
  let cfg = Harness.Workload.paper ~size_exp:8 ~bulk_ratio:0.15 () in
  let range = Harness.Workload.key_range cfg in
  Alcotest.(check int) "range = 2^(k+1)" 512 range;
  Alcotest.(check int) "preload size = 2^k" 256
    (List.length (Harness.Workload.initial_keys cfg));
  let rng = Harness.Prng.create ~seed:9 in
  for _ = 1 to 10_000 do
    match Harness.Workload.gen_op cfg rng with
    | Harness.Workload.Contains v | Harness.Workload.Add v
    | Harness.Workload.Remove v ->
      assert (v >= 0 && v < range)
    | Harness.Workload.Add_all (a, b) | Harness.Workload.Remove_all (a, b) ->
      assert (a >= 0 && a < range);
      (* b is the closest integer to a/2, as in the paper *)
      assert (b = (a + 1) / 2)
  done

let test_figure_wiring () =
  Alcotest.(check bool) "6a is linked list" true
    (Harness.Figures.structure_of Harness.Figures.F6a = Harness.Target.Linked_list);
  Alcotest.(check bool) "7b is skip list" true
    (Harness.Figures.structure_of Harness.Figures.F7b = Harness.Target.Skip_list);
  Alcotest.(check (float 1e-9)) "8b bulk ratio" 0.15
    (Harness.Figures.bulk_ratio_of Harness.Figures.F8b);
  Alcotest.(check (float 1e-9)) "7a bulk ratio" 0.05
    (Harness.Figures.bulk_ratio_of Harness.Figures.F7a);
  List.iter
    (fun f ->
      Alcotest.(check bool) "short name roundtrips" true
        (Harness.Figures.of_string (Harness.Figures.short_name f) = Some f))
    Harness.Figures.(all @ read_heavy)

let test_targets_run_every_op () =
  (* Every (structure, STM) target must accept every op constructor. *)
  let cfg = Harness.Workload.paper ~size_exp:6 ~bulk_ratio:0.15 () in
  List.iter
    (fun structure ->
      List.iter
        (fun (module T : Harness.Target.TARGET) ->
          T.setup cfg;
          List.iter T.run_op
            [ Harness.Workload.Contains 3; Harness.Workload.Add 4;
              Harness.Workload.Remove 4; Harness.Workload.Add_all (10, 5);
              Harness.Workload.Remove_all (10, 5) ])
        (Harness.Target.series_for structure))
    [ Harness.Target.Linked_list; Harness.Target.Skip_list;
      Harness.Target.Hash_set { load_factor = 16 } ]

let test_mini_sweep () =
  (* End-to-end: a tiny sweep produces sane numbers. *)
  let cfg = Harness.Workload.paper ~size_exp:6 ~bulk_ratio:0.05 () in
  List.iter
    (fun (module T : Harness.Target.TARGET) ->
      let axis = if T.name = "Sequential" then [ 1 ] else [ 1; 2 ] in
      let points =
        Harness.Sweep.run_series (module T) ~cfg ~threads:axis ~duration:0.05
          ~runs:1 ~seed:5
      in
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s@%d made progress" T.name p.Harness.Sweep.threads)
            true
            (p.Harness.Sweep.ops_per_ms > 0.0);
          Alcotest.(check bool) "abort rate within [0,1]" true
            (p.Harness.Sweep.abort_rate >= 0.0 && p.Harness.Sweep.abort_rate <= 1.0))
        points)
    (Harness.Target.series_for Harness.Target.Linked_list)

let oe_target () =
  List.find
    (fun (module T : Harness.Target.TARGET) -> T.name = "OE-STM")
    (Harness.Target.series_for Harness.Target.Linked_list)

(* Regression for a sweep bug: stats were reset at the start of every run
   but snapshotted only once, after the last run, so a multi-run point
   under-reported commits/aborts by a factor of [runs].  With one worker
   and no faults every [run_op] is exactly one top-level commit, so the
   accumulated commits must equal the operations of all runs — exact,
   whatever the wall-clock windows let each run do.  A last-run-only
   snapshot breaks the 3-run equality. *)
let test_runs_accumulate () =
  let cfg = Harness.Workload.paper ~size_exp:6 ~bulk_ratio:0.05 () in
  let (module T) = oe_target () in
  let point runs =
    Harness.Sweep.run_point (module T) ~cfg ~threads:1 ~duration:0.05 ~runs
      ~seed:11
  in
  let p1 = point 1 and p3 = point 3 in
  Alcotest.(check bool) "single run commits" true (p1.Harness.Sweep.total_commits > 0);
  Alcotest.(check int) "runs recorded" 3 p3.Harness.Sweep.runs;
  Alcotest.(check int) "1 run: commits = ops" p1.Harness.Sweep.total_ops
    p1.Harness.Sweep.total_commits;
  Alcotest.(check int) "3 runs: commits = ops" p3.Harness.Sweep.total_ops
    p3.Harness.Sweep.total_commits;
  (* The accumulated snapshot must agree with the headline counters. *)
  Alcotest.(check int) "snapshot commits = total_commits"
    p3.Harness.Sweep.total_commits
    p3.Harness.Sweep.stats.Stm_core.Stats.commits

(* The timing window is the measured steady state only: it opens when every
   worker has passed the start barrier and closes at the stop flag, so it
   can never be shorter than the requested duration and never includes
   spawn/join time (which on a loaded CI box dwarfs a short window). *)
let test_timing_window () =
  let cfg = Harness.Workload.paper ~size_exp:6 ~bulk_ratio:0.05 () in
  let (module T) = oe_target () in
  let duration = 0.05 in
  let p =
    Harness.Sweep.run_point (module T) ~cfg ~threads:2 ~duration ~runs:2
      ~seed:13
  in
  Alcotest.(check bool) "window covers both runs" true
    (p.Harness.Sweep.elapsed_ms >= 2.0 *. duration *. 1000.0 *. 0.95);
  Alcotest.(check bool) "ops were counted" true
    (p.Harness.Sweep.total_ops > 0)

let test_detailed_metrics () =
  let cfg = Harness.Workload.paper ~size_exp:6 ~bulk_ratio:0.05 () in
  let (module T) = oe_target () in
  let p =
    Harness.Sweep.run_point ~detailed:true (module T) ~cfg ~threads:1
      ~duration:0.05 ~runs:1 ~seed:17
  in
  let s = p.Harness.Sweep.stats in
  let module H = Stm_core.Stats.Hist in
  Alcotest.(check bool) "commit latencies recorded" true
    (H.count s.Stm_core.Stats.commit_latency_ns > 0);
  Alcotest.(check bool) "commit latency p50 positive" true
    (H.percentile s.Stm_core.Stats.commit_latency_ns 50.0 > 0);
  Alcotest.(check bool) "retry depths recorded" true
    (H.count s.Stm_core.Stats.retry_depth > 0);
  Alcotest.(check bool) "read-set sizes recorded" true
    (H.count s.Stm_core.Stats.read_set_size > 0);
  Alcotest.(check bool) "flag restored after the sweep" false
    (Stm_core.Stats.detailed_enabled ());
  (* And without the flag nothing detailed is recorded. *)
  let q =
    Harness.Sweep.run_point (module T) ~cfg ~threads:1 ~duration:0.02 ~runs:1
      ~seed:17
  in
  Alcotest.(check int) "no latencies when disabled" 0
    (H.count q.Harness.Sweep.stats.Stm_core.Stats.commit_latency_ns)

let test_json_end_to_end () =
  let r =
    Harness.Figures.run ~size_exp:5 ~threads:[ 1 ] ~duration:0.02 ~runs:1
      ~seed:3 ~detailed:true Harness.Figures.F6a
  in
  let text = Harness.Report.to_string (Harness.Report.report [ r ]) in
  match Harness.Report.of_string text with
  | Error e -> Alcotest.failf "emitted report is not valid JSON: %s" e
  | Ok json ->
    let module R = Harness.Report in
    Alcotest.(check bool) "sanitizer verdict present (null when off)" true
      (match R.member "sanitizer" json with
      | Some R.Null | Some (R.Obj _) -> true
      | _ -> false);
    (* Recovery and durability are off here: both verdicts are null, and
       objects once the plane has them on. *)
    let verdict key json =
      match R.member key json with
      | Some R.Null -> `Null
      | Some (R.Obj _) -> `Obj
      | _ -> Alcotest.failf "%S is neither null nor an object" key
    in
    List.iter
      (fun key ->
        Alcotest.(check bool) (key ^ " null when off") true
          (verdict key json = `Null))
      [ "recovery"; "durability" ];
    let wal = Filename.temp_file "test_harness" ".wal" in
    let on =
      Fun.protect
        ~finally:(fun () ->
          Stm_core.Recovery.disable ();
          Persist.disable ();
          Sys.remove wal)
        (fun () ->
          Stm_core.Recovery.enable ();
          Persist.enable ~path:wal ();
          R.report [ r ])
    in
    List.iter
      (fun key ->
        Alcotest.(check bool) (key ^ " an object when on") true
          (verdict key on = `Obj))
      [ "recovery"; "durability" ];
    let fig =
      match R.member "figures" json with
      | Some (R.List [ fig ]) -> fig
      | _ -> Alcotest.fail "expected exactly one figure"
    in
    Alcotest.(check bool) "figure name" true
      (R.member "figure" fig = Some (R.Str "6a"));
    Alcotest.(check bool) "seed carried through" true
      (R.member "seed" fig = Some (R.Int 3));
    (match R.member "series" fig with
    | Some (R.List series) ->
      Alcotest.(check int) "five series" 5 (List.length series);
      List.iter
        (fun s ->
          match R.member "points" s with
          | Some (R.List (point :: _)) ->
            List.iter
              (fun key ->
                if R.member key point = None then
                  Alcotest.failf "point is missing %S" key)
              [ "threads"; "ops_per_ms"; "abort_rate"; "total_ops";
                "elapsed_ms"; "runs"; "commits"; "aborts";
                "starvations"; "fallbacks"; "timeouts";
                "aborts_by_reason"; "commit_latency_ns"; "abort_latency_ns";
                "retry_depth"; "read_set_size"; "write_set_size" ]
          | _ -> Alcotest.fail "series has no points")
        series
    | _ -> Alcotest.fail "figure has no series")

(* [Harness.Knobs.engine] on a command line: [`Ok] once the knobs are
   applied, [`Parse] for a malformed value, [`Term] for values that are
   well-formed but do not go together. *)
let eval_engine args =
  let cmd = Cmdliner.Cmd.v (Cmdliner.Cmd.info "knobs") Harness.Knobs.engine in
  let err = Format.make_formatter (fun _ _ _ -> ()) ignore in
  match
    Cmdliner.Cmd.eval_value ~err ~argv:(Array.of_list ("knobs" :: args)) cmd
  with
  | Ok (`Ok ()) -> "ok"
  | Ok (`Help | `Version) -> "help"
  | Error `Parse -> "parse error"
  | Error `Term -> "term error"
  | Error `Exn -> "exception"

let test_knobs_engine () =
  let module R = Harness.Report in
  let clock = Stm_core.Clock.current_policy ()
  and retry_cap = !Stm_core.Runtime.retry_cap in
  let config () = R.to_string (R.config_to_json ()) in
  let before = config () in
  Fun.protect
    ~finally:(fun () ->
      Stm_core.Clock.set_policy clock;
      Stm_core.Runtime.retry_cap := retry_cap)
    (fun () ->
      List.iter
        (fun (args, want) ->
          Alcotest.(check string) (String.concat " " args) want
            (eval_engine args))
        [ ([ "--retry-cap"; "7"; "--clock"; "gv9" ], "parse error");
          ([ "--retry-cap"; "7"; "--faults"; "abort=2" ], "parse error");
          ([ "--retry-cap"; "7"; "--faults"; "abort" ], "parse error");
          ([ "--clock"; "gv5"; "--retry-cap"; "x" ], "parse error");
          ([ "--clock"; "gv5"; "--retry-cap=-1" ], "term error") ];
      Alcotest.(check string) "a refused line applies nothing" before
        (config ());
      Alcotest.(check string) "knobs applied" "ok"
        (eval_engine [ "--clock"; "gv5"; "--retry-cap"; "7" ]);
      let got = R.config_to_json () in
      List.iter
        (fun (key, want) ->
          Alcotest.(check bool)
            (Printf.sprintf "config.%s = %s" key (R.to_string want))
            true
            (R.member key got = Some want))
        [ ("clock", R.Str "gv5"); ("retry_cap", R.Int 7) ])

let suite =
  [ Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split independence" `Quick
      test_prng_split_independent;
    QCheck_alcotest.to_alcotest prop_prng_bounds;
    Alcotest.test_case "workload mix matches the paper" `Quick
      test_workload_mix;
    Alcotest.test_case "workload keys in range" `Quick
      test_workload_keys_in_range;
    Alcotest.test_case "figure wiring" `Quick test_figure_wiring;
    Alcotest.test_case "targets run every op" `Quick test_targets_run_every_op;
    Alcotest.test_case "mini sweep end-to-end" `Slow test_mini_sweep;
    Alcotest.test_case "multi-run points accumulate stats" `Slow
      test_runs_accumulate;
    Alcotest.test_case "timing window excludes spawn/join" `Slow
      test_timing_window;
    Alcotest.test_case "detailed metrics in the sweep" `Slow
      test_detailed_metrics;
    Alcotest.test_case "JSON report end-to-end" `Slow test_json_end_to_end;
    Alcotest.test_case "engine knobs parse and apply" `Quick
      test_knobs_engine ]
