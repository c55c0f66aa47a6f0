(** Comparing two benchmark reports ([bin/figures.exe --compare]).

    A report is flattened into (figure, series, threads) -> ops/ms points;
    the delta table pairs up the keys present in both reports and computes
    the relative change.  Works with any schema version that carries the
    figures/series/points shape (v1 reports predate the config additions
    but the data layout is the same), so an old committed baseline stays
    usable. *)

type delta = {
  d_figure : string;
  d_series : string;
  d_threads : int;
  d_base : float;   (** baseline ops/ms *)
  d_cur : float;    (** current ops/ms *)
  d_pct : float;    (** 100 * (cur - base) / base; 0 when base = 0 *)
}

let load file : (Report.json, string) result =
  match In_channel.with_open_text file In_channel.input_all with
  | s -> Report.of_string s
  | exception Sys_error msg -> Error msg

let number = function
  | Report.Int i -> Some (float_of_int i)
  | Report.Float f -> Some f
  | _ -> None

let str = function Report.Str s -> Some s | _ -> None

let list = function Report.List l -> l | _ -> []

let get key j = Report.member key j

(* Flatten to ((figure, series, threads), ops_per_ms), in report order. *)
let points_of (j : Report.json) =
  let ( let* ) o f = Option.fold ~none:[] ~some:f o in
  List.concat_map
    (fun fig ->
      let* fname = Option.bind (get "figure" fig) str in
      List.concat_map
        (fun series ->
          let* sname = Option.bind (get "name" series) str in
          List.filter_map
            (fun p ->
              match
                ( Option.bind (get "threads" p) number,
                  Option.bind (get "ops_per_ms" p) number )
              with
              | Some t, Some ops -> Some ((fname, sname, int_of_float t), ops)
              | _ -> None)
            (Option.fold ~none:[] ~some:list (get "points" series)))
        (Option.fold ~none:[] ~some:list (get "series" fig)))
    (Option.fold ~none:[] ~some:list (get "figures" j))

let diff ~baseline ~current : delta list =
  let base = points_of baseline in
  List.filter_map
    (fun ((fname, sname, threads), cur_ops) ->
      match List.assoc_opt (fname, sname, threads) base with
      | None -> None
      | Some base_ops ->
        let pct =
          if base_ops = 0.0 then 0.0
          else 100.0 *. (cur_ops -. base_ops) /. base_ops
        in
        Some
          { d_figure = fname; d_series = sname; d_threads = threads;
            d_base = base_ops; d_cur = cur_ops; d_pct = pct })
    (points_of current)

let regressions ~threshold_pct deltas =
  List.filter (fun d -> d.d_pct < -.threshold_pct) deltas

let pp_delta ppf d =
  Format.fprintf ppf "%-4s %-14s %2d thr  %10.1f -> %10.1f ops/ms  %+7.1f%%"
    d.d_figure d.d_series d.d_threads d.d_base d.d_cur d.d_pct

let pp_table ppf deltas =
  Format.fprintf ppf "%-4s %-14s %-6s %25s %9s@." "fig" "series" "thr"
    "baseline -> current" "delta";
  List.iter (fun d -> Format.fprintf ppf "%a@." pp_delta d) deltas

(** [check ~baseline_file ?regress_pct current] prints the delta table of
    the [current] report against the one in [baseline_file] and returns
    the exit status: 2 if the baseline cannot be read, 1 if [regress_pct]
    is given and some series lost more than that many percent, else 0. *)
let check ~baseline_file ?regress_pct current =
  match load baseline_file with
  | Error msg ->
    Printf.eprintf "# compare: cannot load %s: %s\n" baseline_file msg;
    2
  | Ok baseline ->
    let deltas = diff ~baseline ~current in
    Printf.printf "\n# Comparison against %s\n%!" baseline_file;
    if deltas = [] then
      print_endline "# no overlapping (figure, series, threads) points"
    else Format.printf "%a%!" pp_table deltas;
    match regress_pct with
    | None -> 0
    | Some threshold_pct ->
      (match regressions ~threshold_pct deltas with
      | [] ->
        Printf.printf "# compare: no series regressed more than %.1f%%\n%!"
          threshold_pct;
        0
      | bad ->
        Printf.eprintf "# compare: %d series regressed more than %.1f%%\n"
          (List.length bad) threshold_pct;
        List.iter (fun d -> Format.eprintf "#   %a@." pp_delta d) bad;
        1)
