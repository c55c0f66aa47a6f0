(* Bechamel micro-benchmarks for the paper's evaluation (Section VII): one
   Test.make per (figure, series), the single-thread latency of one
   workload operation for every STM and the sequential baseline on each
   figure's data structure and bulk ratio.  These give precise per-op
   costs that the throughput tables cannot; the multi-domain figure sweep
   is bin/figures.exe. *)

open Bechamel
open Toolkit

(* A smaller structure than the sweep (2^10 elements) keeps the per-op
   latency in micro-benchmark range; the relative ordering of the series is
   what matters. *)
let micro_size_exp = 10

let micro_test (figure : Harness.Figures.figure) (module T : Harness.Target.TARGET) =
  let cfg =
    Harness.Workload.paper ~size_exp:micro_size_exp
      ~bulk_ratio:(Harness.Figures.bulk_ratio_of figure) ()
  in
  T.setup cfg;
  let rng = Harness.Prng.create ~seed:7 in
  (* Pre-generate the op stream so generation cost stays out of the
     measured function. *)
  let stream = Array.init 4096 (fun _ -> Harness.Workload.gen_op cfg rng) in
  let idx = ref 0 in
  Test.make
    ~name:(Printf.sprintf "fig%s/%s" (Harness.Figures.short_name figure) T.name)
    (Staged.stage (fun () ->
         let op = stream.(!idx land 4095) in
         incr idx;
         T.run_op op))

let micro_tests figure =
  List.map (micro_test figure)
    (Harness.Target.series_for (Harness.Figures.structure_of figure))

let run_micro () =
  print_endline "## Micro-benchmarks: single-thread latency per operation";
  print_endline "## (one Bechamel test per figure x series; ns per op)";
  let instance = Instance.monotonic_clock in
  let benchmark_cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.25) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun figure ->
      Printf.printf "\n%s\n" (Harness.Figures.name figure);
      let tests = micro_tests figure in
      List.iter
        (fun test ->
          let raw = Benchmark.all benchmark_cfg [ instance ] test in
          let results = Analyze.all ols instance raw in
          Hashtbl.iter
            (fun name ols_result ->
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/op\n%!" name est
              | Some ests ->
                Printf.printf "  %-28s %12s\n%!" name
                  (String.concat ","
                     (List.map (Printf.sprintf "%.0f") ests))
              | None -> Printf.printf "  %-28s %12s\n%!" name "n/a")
            results)
        tests)
    Harness.Figures.all

let () = run_micro ()
