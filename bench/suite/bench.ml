(* The repository benchmark: OE-STM against TL2 on four closed-loop
   workloads, end-to-end metrics from untraced trials, per-layer metrics
   from a traced rerun plus a micro pass.  README.md has the metric
   glossary, why each workload exists, and how to run, trace and A/B it.

     dune exec bench/suite/bench.exe -- --json OUT.json
     dune exec bench/suite/bench.exe -- --trace --workload bank
     dune exec bench/suite/bench.exe -- --compare A.json -- B.json

   The last line of standard output is one JSON object: [correct],
   [attempted], [failed] and [metrics] — the end-to-end metrics, or with
   [--trace] the per-layer ones.  Exit status 1 when any check failed. *)

open Stm_core
module J = Harness.Report
module W = Workloads

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type opts = {
  seed : int;
  json : string option;
  workload : string option;
  trace : bool;
  trace_out : string;
  smoke : bool;
  seconds : float;  (** total timed window per workload, untraced *)
}

let usage =
  "usage: bench.exe [--seed N] [--json OUT.json] [--workload NAME] [--trace [0|1]]\n\
  \                 [--trace-out FILE] [--smoke] [--seconds S]\n\
  \       bench.exe --compare BASE.json... -- NEW.json..."

let die msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse args =
  let num conv flag v = match conv v with Some x -> x | None -> die (flag ^ " wants a number, got " ^ v) in
  let rec go o = function
    | [] -> o
    | "--seed" :: v :: r -> go { o with seed = num int_of_string_opt "--seed" v } r
    | "--json" :: f :: r -> go { o with json = Some f } r
    | "--workload" :: w :: r -> go { o with workload = Some w } r
    | "--trace" :: (("0" | "1") as v) :: r -> go { o with trace = v = "1" } r
    | "--trace" :: r -> go { o with trace = true } r
    | "--trace-out" :: f :: r -> go { o with trace_out = f } r
    | "--smoke" :: r -> go { o with smoke = true } r
    | "--seconds" :: v :: r ->
      let s = num float_of_string_opt "--seconds" v in
      if s <= 0. then die "--seconds must be positive";
      go { o with seconds = s } r
    | a :: _ -> die ("unknown or incomplete argument " ^ a)
  in
  go
    { seed = 1; json = None; workload = None; trace = false;
      trace_out = "bench-suite-trace.json"; smoke = false; seconds = 30. }
    args

(* Trials alternate OE and TL2.  A window is a tenth of [--seconds], so
   the 10 untraced trials measure [--seconds] in all; [--trace] and
   [--smoke] run one trial per engine. *)
type plan = { trials_per_engine : int; window : float; warmup : float; seq_trials : int }

let plan_of o =
  let window = if o.smoke then 0.2 else o.seconds /. 10. in
  { trials_per_engine = (if o.smoke || o.trace then 1 else 5); window;
    warmup = Float.min 0.25 (window /. 4.); seq_trials = 3 }

let ops_per_worker = 1 lsl 16

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = {
  name : string;
  unit : string;
  value : float;
  samples : int;
  spread : float;  (** IQR / median across trials; nan when not applicable *)
}

let metric ?(samples = 1) ?(spread = nan) name unit value = { name; unit; value; samples; spread }
let fl = float_of_int
let ratio a b = if b = 0 then 0. else fl a /. fl b
let us_of_ns x = x /. 1e3

let of_engine e = List.filter (fun (t : Trial.t) -> t.engine = e)

(* Latency percentile [q] over every timed op of [ts]; the spread is that
   of the per-trial percentiles. *)
let latency name ts q =
  let h = Lathist.create () in
  List.iter (fun (t : Trial.t) -> Lathist.add_into ~dst:h t.hist) ts;
  metric name "us"
    (us_of_ns (Lathist.percentile h q))
    ~samples:(Lathist.count h)
    ~spread:(Quantile.rel_iqr (List.map (fun (t : Trial.t) -> Lathist.percentile t.hist q) ts))

(* The bounded end-to-end metrics (the ones BENCHMARK.json names). *)
let end_to_end (trials : Trial.t list) ~mem_bytes_per_key =
  let per_engine e =
    let ts = of_engine e trials in
    let p = W.engine_name e ^ "." in
    let ops = List.map (fun (t : Trial.t) -> t.ops_per_s) ts in
    [ metric (p ^ "ops_per_s") "ops/s" (Quantile.median ops) ~samples:(List.length ops)
        ~spread:(Quantile.rel_iqr ops);
      latency (p ^ "p50_us") ts 50. ]
  in
  let setup = List.map (fun (t : Trial.t) -> t.setup_s) trials in
  List.concat_map per_engine W.engines
  @ [ metric "setup_s" "s" (Quantile.median setup) ~samples:(List.length setup)
        ~spread:(Quantile.rel_iqr setup);
      metric "mem_bytes_per_key" "B" mem_bytes_per_key ]

(* Reported but not bounded: the tail moves with host drift far more
   than the median does (see README.md, Calibration). *)
let tail (trials : Trial.t list) =
  List.concat_map
    (fun e ->
      let ts = of_engine e trials and p = W.engine_name e ^ "." in
      [ latency (p ^ "p95_us") ts 95.; latency (p ^ "p99_us") ts 99. ])
    W.engines

(* Allocation and major cycles per op inside the untraced windows. *)
let gc_metrics (trials : Trial.t list) =
  List.concat_map
    (fun e ->
      let ts = of_engine e trials in
      let ops = List.fold_left (fun a (t : Trial.t) -> a + t.window_ops) 0 ts in
      let p = W.engine_name e ^ "." in
      [ metric (p ^ "gc.minor_words_per_op") "words/op"
          (List.fold_left (fun a (t : Trial.t) -> a +. t.minor_words) 0. ts /. fl ops);
        metric (p ^ "gc.major_collections_per_kop") "count/kop"
          (1000. *. ratio (List.fold_left (fun a (t : Trial.t) -> a + t.majors) 0 ts) ops) ])
    W.engines

let aborts_reported =
  Control.[ Read_locked; Read_too_new; Window_invalid; Validation_failed; Lock_contention ]

(* Per-layer metrics of one workload: counts from the traced trial of each
   engine, rates against its untraced reference trial, unit costs from the
   micro pass, and the cost model that adds the two up. *)
let per_layer (wl : W.t) ~refs ~traced ~seq ~micro =
  let cost name = List.assoc name micro in
  let seq_ops = Quantile.median seq in
  let per_engine e =
    let p = W.engine_name e ^ "." in
    let r = List.hd (of_engine e refs) and t = List.hd (of_engine e traced) in
    let s = t.Trial.stats and c = t.Trial.counts in
    let per_op x = ratio x t.executed and per_kop x = 1000. *. ratio x t.executed in
    let attempts = s.Stats.commits + s.Stats.aborts in
    let reads = per_op c.reads and writes = per_op c.writes and locks = per_op c.locks in
    let read_cost =
      cost "runtime.schedule_point_ns" +. cost "wset.find_miss_ns" +. cost "tvar.read_consistent_ns"
      +. if e = W.Tl2 then cost "rset.push_ns" else 0.
    in
    let predicted =
      (reads *. read_cost) +. (writes *. cost "wset.add_ns")
      +. (per_op attempts *. cost (p ^ "tx.empty_ns"))
      +. (locks *. cost "wset.lock_install_ns" /. 2.)
      +. (per_op c.writing_commits *. cost "clock.tick_ns.gv1")
    in
    let measured = fl wl.workers *. 1e9 /. r.Trial.ops_per_s in
    let hist_p50 h = fl (Stats.Hist.percentile h 50.) in
    [ metric (p ^ "eec.reads_per_op") "count/op" reads;
      metric (p ^ "eec.writes_per_op") "count/op" writes;
      metric (p ^ "vlock.locks_per_op") "count/op" locks ]
    @ List.filter (fun m -> String.starts_with ~prefix:p m.name) (gc_metrics refs)
    @ [ metric (p ^ "retry.attempts_per_op") "count/op" (per_op attempts);
        metric (p ^ "retry.abort_rate") "ratio" (Stats.abort_rate s) ]
    @ List.map
        (fun reason ->
          metric
            (p ^ "retry.aborts." ^ Control.reason_to_string reason)
            "count/kop"
            (per_kop (Option.value ~default:0 (List.assoc_opt reason s.Stats.by_reason))))
        aborts_reported
    @ [ metric (p ^ "retry.fallbacks_per_kop") "count/kop" (per_kop s.Stats.fallbacks);
        metric (p ^ "rset.size_p50") "entries" (hist_p50 s.Stats.read_set_size);
        metric (p ^ "rset.validation_len_p50") "entries" (hist_p50 s.Stats.validation_len);
        metric (p ^ "wset.read_hit_frac") "ratio"
          (ratio s.Stats.read_ws_hits (s.Stats.read_ws_hits + s.Stats.read_ws_misses));
        metric (p ^ "tx.empty_ns") "ns" (cost (p ^ "tx.empty_ns"));
        metric (p ^ "tx.read1_ns") "ns" (cost (p ^ "tx.read1_ns"));
        metric (p ^ "tx.transfer_ns") "ns" (cost (p ^ "tx.transfer_ns"));
        metric (p ^ "overhead_x") "x" (seq_ops /. r.Trial.ops_per_s);
        metric (p ^ "model.predicted_ns_per_op") "ns" predicted;
        metric (p ^ "model.explained_frac") "ratio" (predicted /. measured);
        metric (p ^ "trace.overhead_frac") "ratio" (1. -. (t.Trial.ops_per_s /. r.Trial.ops_per_s)) ]
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 traced in
  (* The engine-independent unit costs; the [{e}.tx.*] ones are above. *)
  let unit_cost (name, v) =
    let engine = List.exists (fun e -> String.starts_with ~prefix:(W.engine_name e ^ ".") name) W.engines in
    let unit_of =
      if String.ends_with ~suffix:"_us" name then "us"
      else if String.ends_with ~suffix:"_s" name then "s"
      else "ns"
    in
    if engine then None else Some (metric name unit_of v)
  in
  List.concat_map per_engine W.engines
  @ List.filter_map unit_cost micro
  @ [ metric "wal.fsyncs_per_op" "count/op"
        (ratio (sum (fun t -> t.Trial.wal_syncs)) (sum (fun t -> t.Trial.executed)));
      (* A transfer's user payload: two 8-byte balances. *)
      metric "wal.bytes_per_user_byte" "ratio"
        (ratio (sum (fun t -> t.Trial.wal_bytes)) (16 * sum (fun t -> t.Trial.wal_appends)));
      metric "seq.ops_per_s" "ops/s" seq_ops ~samples:(List.length seq) ~spread:(Quantile.rel_iqr seq) ]

(* The traced run must see its observation points fire, so a change that
   silently unhooks one is caught. *)
let loud_checks (wl : W.t) layers ~traced =
  let value name = (List.find (fun m -> m.name = name) layers).value in
  let each e fmt = Printf.sprintf fmt (W.engine_name e) in
  match wl.name with
  | "list-read" ->
    List.filter_map
      (fun e ->
        if value (each e "%s.eec.reads_per_op") = 0. then
          Some (each e "%s shows 0 reads per op: the counting yield hook saw nothing")
        else None)
      W.engines
  | "bank" ->
    List.filter_map
      (fun e ->
        if value (each e "%s.vlock.locks_per_op") = 0. then
          Some (each e "%s shows 0 locks per op: the counting yield hook saw nothing")
        else None)
      W.engines
  | "bank-durable" ->
    if List.for_all (fun (t : Trial.t) -> t.hook_calls = 0) traced then
      [ "the traced run saw no commit-hook calls" ]
    else []
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Running                                                             *)

type outcome = {
  wl : W.t;
  trials : Trial.t list;  (** untraced, then traced *)
  e2e : metric list;
  tail : metric list;
  layers : metric list;  (** GC only, unless traced *)
  seq : float list;
  errors : string list;
  attempted : int;
  failed : int;
}

let run_workload o plan ~index ~micro (wl : W.t) =
  let ops =
    Array.init wl.workers (fun w ->
        let rng = Splitmix.create ~seed:o.seed ~stream:((index * 16) + w) in
        Array.init ops_per_worker (fun _ -> wl.gen rng))
  in
  let trial ~traced e = Trial.run wl ~engine:e ~ops ~warmup:plan.warmup ~window:plan.window ~traced in
  let untraced =
    List.concat (List.init plan.trials_per_engine (fun _ -> List.map (trial ~traced:false) W.engines))
  in
  let traced = if o.trace then List.map (trial ~traced:true) W.engines else [] in
  let seq =
    if o.trace then List.init plan.seq_trials (fun _ -> Trial.run_seq wl ~ops ~window:(plan.window /. 2.))
    else []
  in
  let mem_bytes_per_key = fl (wl.footprint_words () * 8) /. fl wl.keys in
  let trials = untraced @ traced in
  let layers =
    if o.trace then per_layer wl ~refs:untraced ~traced ~seq ~micro:(Lazy.force micro)
    else gc_metrics untraced
  in
  let check_errors =
    List.concat
      (List.mapi
         (fun i (t : Trial.t) ->
           match t.check with
           | Ok () -> []
           | Error e -> [ Printf.sprintf "trial %d (%s): %s" i (W.engine_name t.engine) e ])
         trials)
  in
  { wl; trials; e2e = end_to_end untraced ~mem_bytes_per_key; tail = tail untraced; layers; seq;
    errors = check_errors @ (if o.trace then loud_checks wl layers ~traced else []);
    attempted = List.fold_left (fun a (t : Trial.t) -> a + t.executed) 0 trials;
    failed = List.fold_left (fun a (t : Trial.t) -> a + t.failed) 0 trials }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let print_metric m =
  let extra =
    if Float.is_nan m.spread then "" else Printf.sprintf "  n=%-8d IQR %5.1f%%" m.samples (100. *. m.spread)
  in
  Printf.printf "  %-34s %16.6g %-9s%s\n" m.name m.value m.unit extra

let print_outcome r =
  Printf.printf "\n== %s (%d worker%s, %s): %s\n" r.wl.name r.wl.workers
    (if r.wl.workers = 1 then "" else "s")
    (if r.wl.durable then "latency to WAL ack" else "latency to return")
    r.wl.why;
  List.iter print_metric (r.e2e @ r.tail);
  Printf.printf "  %-34s %16.6g %-9s  (%d of %d ops)\n" "failed_frac" (ratio r.failed r.attempted)
    "ratio" r.failed r.attempted;
  (match r.errors with
  | [] -> Printf.printf "  checks: ok (%d trials)\n" (List.length r.trials)
  | es -> List.iter (Printf.eprintf "%s: CHECK FAILED: %s\n%!" r.wl.name) es);
  Printf.printf "  -- per layer --\n";
  List.iter print_metric r.layers;
  flush stdout

let jfloat x = J.Float x
let jmetric m = J.Obj [ ("value", jfloat m.value); ("unit", J.Str m.unit) ]

let trial_json (t : Trial.t) =
  J.Obj
    [ ("engine", J.Str (W.engine_name t.engine));
      ("traced", J.Bool t.traced);
      ("ops_per_s", jfloat t.ops_per_s);
      ("p50_us", jfloat (us_of_ns (Lathist.percentile t.hist 50.)));
      ("p99_us", jfloat (us_of_ns (Lathist.percentile t.hist 99.)));
      ("setup_s", jfloat t.setup_s);
      ("window_s", jfloat t.window_s);
      ("ops", J.Int t.window_ops);
      ("latency_samples", J.Int (Lathist.count t.hist));
      ("executed", J.Int t.executed);
      ("failed", J.Int t.failed);
      ("check", J.Str (match t.check with Ok () -> "ok" | Error e -> e));
      ("spans_recorded", J.Int t.spans_recorded);
      ("spans_dropped", J.Int t.spans_dropped) ]

let outcome_json r =
  J.Obj
    [ ("name", J.Str r.wl.name);
      ("why", J.Str r.wl.why);
      ("workers", J.Int r.wl.workers);
      ("correct", J.Bool (r.errors = []));
      ("errors", J.List (List.map (fun e -> J.Str e) r.errors));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("failed_frac", jfloat (ratio r.failed r.attempted));
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               ( m.name,
                 J.Obj
                   [ ("value", jfloat m.value); ("unit", J.Str m.unit); ("samples", J.Int m.samples);
                     ("iqr", jfloat m.spread) ] ))
             (r.e2e @ r.tail)) );
      ("per_layer", J.Obj (List.map (fun m -> (m.name, jmetric m)) r.layers));
      ("seq_ops_per_s", J.List (List.map jfloat r.seq));
      ("trials", J.List (List.map trial_json r.trials)) ]

let config_json o plan =
  let base = match Harness.Report.config_to_json () with J.Obj f -> f | _ -> [] in
  J.Obj
    ([ ("host_cores", J.Int (Domain.recommended_domain_count ()));
       ("ocaml_version", J.Str Sys.ocaml_version);
       ( "backend",
         J.Str (match Sys.backend_type with Native -> "native" | Bytecode -> "bytecode" | Other s -> s) );
       ("word_size", J.Int Sys.word_size);
       ("detailed_stats", J.Str "traced trials only");
       ("seed", J.Int o.seed);
       ("seconds", jfloat o.seconds);
       ("smoke", J.Bool o.smoke);
       ("trace", J.Bool o.trace);
       ( "trial_plan",
         J.Obj
           [ ("engines", J.List (List.map (fun e -> J.Str (W.engine_name e)) W.engines));
             ("trials_per_engine", J.Int plan.trials_per_engine);
             ("traced_trials_per_engine", J.Int (if o.trace then 1 else 0));
             ("seq_trials", J.Int (if o.trace then plan.seq_trials else 0));
             ("window_s", jfloat plan.window);
             ("warmup_s", jfloat plan.warmup);
             ("ops_per_worker", J.Int ops_per_worker) ] );
       ("bench_rev", match Sys.getenv_opt "BENCH_REV" with Some r -> J.Str r | None -> J.Null) ]
    @ base)

(* Every metric BENCHMARK.json names must be reported, with its unit. *)
let spec_errors outcomes ~trace =
  match Spec.load () with
  | Error e -> [ e ]
  | Ok spec ->
    List.concat_map
      (fun r ->
        let check reported (m : Spec.metric) =
          match List.find_opt (fun x -> x.name = m.name) reported with
          | None -> [ Printf.sprintf "%s: metric %s missing" r.wl.name m.name ]
          | Some x when x.unit <> m.unit ->
            [ Printf.sprintf "%s: metric %s has unit %s, BENCHMARK.json says %s" r.wl.name m.name x.unit m.unit ]
          | Some _ -> []
        in
        List.concat_map (check r.e2e) spec.end_to_end
        @ if trace then List.concat_map (check r.layers) spec.per_layer else [])
      outcomes

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let main o =
  let plan = plan_of o in
  let dir = Filename.concat (Sys.getcwd ()) (Printf.sprintf ".bench-suite-tmp-%d" (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  at_exit (fun () -> Persist.reset_for_testing (); remove_tree dir);
  let base = lazy (W.write_base_log ~seed:o.seed ~dir) in
  let all = W.all ~dir ~base in
  let selected =
    match o.workload with
    | None -> all
    | Some n -> (
      match List.filter (fun (w : W.t) -> w.name = n) all with
      | [] -> die ("unknown workload " ^ n ^ "; one of " ^ String.concat ", " (List.map (fun (w : W.t) -> w.name) all))
      | l -> l)
  in
  let micro = lazy (Micro.run ~smoke:o.smoke ~dir ~base:(Lazy.force base)) in
  Printf.printf "# bench-suite: seed %d, %d trial(s)/engine of %.2f s (+%.2f s warm-up)%s%s\n%!" o.seed
    plan.trials_per_engine plan.window plan.warmup
    (if o.trace then ", traced rerun + micro pass" else "")
    (if o.smoke then ", smoke" else "");
  (* A workload's op streams depend on its position in [all], so a
     [--workload] run sees the same inputs as a full run. *)
  let outcomes =
    List.concat
      (List.mapi
         (fun index wl ->
           if List.memq wl selected then begin
             let r = run_workload o plan ~index ~micro wl in
             print_outcome r;
             [ r ]
           end
           else [])
         all)
  in
  let spec_errs = if o.smoke then spec_errors outcomes ~trace:o.trace else [] in
  List.iter (Printf.eprintf "SMOKE CHECK FAILED: %s\n%!") spec_errs;
  Option.iter
    (fun f ->
      J.write_file f
        (J.Obj
           [ ("schema", J.Str "bench-suite/1");
             ("config", config_json o plan);
             ("workloads", J.List (List.map outcome_json outcomes)) ]);
      Printf.printf "# wrote %s\n" f)
    o.json;
  if o.trace then begin
    Spans.write_chrome o.trace_out (List.concat_map (fun r -> List.concat_map (fun (t : Trial.t) -> t.kept) r.trials) outcomes);
    Printf.printf "# wrote %s (Chrome trace events)\n" o.trace_out
  end;
  let correct = spec_errs = [] && List.for_all (fun r -> r.errors = [] && r.failed = 0) outcomes in
  let single = List.length outcomes = 1 in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun m -> ((if single then m.name else r.wl.name ^ ":" ^ m.name), jmetric m))
          (if o.trace then r.layers else r.e2e))
      outcomes
  in
  print_endline
    (J.to_string ~indent:0
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int (List.fold_left (fun a r -> a + r.attempted) 0 outcomes));
            ("failed", J.Int (List.fold_left (fun a r -> a + r.failed) 0 outcomes));
            ("metrics", J.Obj metrics) ]));
  if not correct then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "--compare" :: rest ->
    let rec split acc = function
      | "--" :: news -> (List.rev acc, news)
      | f :: r -> split (f :: acc) r
      | [] -> die "--compare wants BASE.json... -- NEW.json..."
    in
    let base_files, new_files = split [] rest in
    if base_files = [] || new_files = [] then die "--compare wants BASE.json... -- NEW.json...";
    exit (Compare.main ~base_files ~new_files)
  | args -> main (parse args)
