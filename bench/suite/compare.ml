(* A/B comparison of reports written with [--json], by the rule of the
   choosing-metrics guide (section 8), with the bounds in BENCHMARK.json.

   Samples: with at least two reports on each side, one value per report
   (the report's median), paired by position — the shape bench/suite/ab.sh
   produces.  With a single report on a side, that report's raw trials,
   which show the noise inside one run but not the drift between runs.
   For each (workload, end-to-end metric) the verdict is
   - improved: at least 10 pairs of reports, the new side wins at least
     9/10 of them, and the medians differ by more than the base's
     interquartile distance;
   - unresolved: the base's spread (IQR / median) is wider than the bound
     and not every new sample beats every base sample;
   - regressed: the new median is worse than the base's by more than the
     bound;
   - within bound: otherwise. *)

module J = Harness.Report

let load file =
  match J.of_string (Spec.read_file file) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)

let workloads j =
  match J.member "workloads" j with
  | Some (J.List l) ->
    List.filter_map
      (fun w -> match J.member "name" w with Some (J.Str n) -> Some (n, w) | _ -> None)
      l
  | _ -> []

let number = function Some (J.Int i) -> Some (float_of_int i) | Some (J.Float f) -> Some f | _ -> None

let metric_value w name =
  match J.member "metrics" w with
  | Some m -> Option.bind (J.member name m) (fun v -> number (J.member "value" v))
  | None -> None

(* Untraced trials' values of a metric: [<e>.<field>] reads [field] of the
   trials of engine [e]; [setup_s] reads every trial's set-up time. *)
let trial_values w name =
  let trials =
    match J.member "trials" w with
    | Some (J.List l) -> List.filter (fun t -> J.member "traced" t = Some (J.Bool false)) l
    | _ -> []
  in
  let pick ?engine field =
    List.filter_map
      (fun t ->
        match engine with
        | Some e when J.member "engine" t <> Some (J.Str e) -> None
        | _ -> number (J.member field t))
      trials
  in
  if name = "setup_s" then pick "setup_s"
  else
    match String.index_opt name '.' with
    | Some i ->
      pick ~engine:(String.sub name 0 i) (String.sub name (i + 1) (String.length name - i - 1))
    | None -> Option.to_list (metric_value w name)

type row = {
  workload : string;
  metric : Spec.metric;
  base : float list;
  next : float list;
  win_frac : float;
  change : float;  (** relative, signed so that positive is better *)
  verdict : string;
}

let better (m : Spec.metric) a b = if m.higher_is_better then a > b else a < b

let judge ~workload (m : Spec.metric) base next ~pairs ~paired_runs =
  let bm = Quantile.median base and nm = Quantile.median next in
  let q1, q3 = Quantile.quartiles base in
  let wins = List.length (List.filter (fun (b, n) -> better m n b) pairs) in
  let win_frac =
    if pairs = [] then 0. else float_of_int wins /. float_of_int (List.length pairs)
  in
  let change = (if m.higher_is_better then nm -. bm else bm -. nm) /. Float.abs bm in
  let all_better = List.for_all (fun n -> List.for_all (fun b -> better m n b) base) next in
  let verdict =
    if paired_runs && List.length pairs >= 10 && win_frac >= 0.9 && change > 0.
       && Float.abs (nm -. bm) > q3 -. q1
    then "improved"
    else if Quantile.rel_iqr base > m.bound && not all_better then "unresolved"
    else if -.change > m.bound then "regressed"
    else "within bound"
  in
  { workload; metric = m; base; next; win_frac; change; verdict }

let rows (spec : Spec.t) ~base_files ~new_files =
  let base_reports = List.map load base_files and new_reports = List.map load new_files in
  let per_report = List.length base_reports >= 2 && List.length new_reports >= 2 in
  let names = List.map fst (workloads (List.hd base_reports)) in
  List.concat_map
    (fun workload ->
      let side reports = List.filter_map (fun r -> List.assoc_opt workload (workloads r)) reports in
      let b = side base_reports and n = side new_reports in
      if b = [] || n = [] then []
      else
        List.map
          (fun (m : Spec.metric) ->
            let values ws =
              if per_report then List.filter_map (fun w -> metric_value w m.name) ws
              else List.concat_map (fun w -> trial_values w m.name) ws
            in
            let bv = values b and nv = values n in
            let rec zip a c = match (a, c) with x :: a, y :: c -> (x, y) :: zip a c | _ -> [] in
            judge ~workload m bv nv ~pairs:(zip bv nv) ~paired_runs:per_report)
          spec.Spec.end_to_end)
    names

let print rows =
  Printf.printf "%-13s %-18s %30s %30s %8s %6s  %s\n" "workload" "metric"
    "base median [q1, q3]" "new median [q1, q3]" "change" "wins" "verdict";
  List.iter
    (fun r ->
      let side v =
        let q1, q3 = Quantile.quartiles v in
        Printf.sprintf "%.4g [%.4g, %.4g] n=%d" (Quantile.median v) q1 q3 (List.length v)
      in
      Printf.printf "%-13s %-18s %30s %30s %+7.1f%% %5.0f%%  %s (bound %.0f%%)\n" r.workload
        r.metric.Spec.name (side r.base) (side r.next) (100. *. r.change)
        (100. *. r.win_frac) r.verdict (100. *. r.metric.Spec.bound))
    rows

(* Exit status: 1 when any row regressed. *)
let main ~base_files ~new_files =
  match Spec.load () with
  | Error e ->
    prerr_endline ("compare: " ^ e);
    2
  | Ok spec ->
    let rows = rows spec ~base_files ~new_files in
    print rows;
    if List.exists (fun r -> r.verdict = "regressed") rows then 1 else 0
