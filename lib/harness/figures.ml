(** Orchestration of the paper's figures (the per-experiment index of
    DESIGN.md).  Each figure is a (structure, bulk-ratio) pair measured for
    the five series — Sequential, OE-STM, LSA, TL2, SwissTM — across the
    thread axis, reporting throughput (ops/ms) and abort rate (%), exactly
    the two quantities plotted in Figures 6, 7 and 8. *)

type figure = F6a | F6b | F6r | F7a | F7b | F8a | F8b

let all = [ F6a; F6b; F7a; F7b; F8a; F8b ]

(* The read-dominated companion sweep: linked-list traversals are the
   workload where per-read write-set lookups and read-set revalidation
   dominate, so this is the series that exposes set-indexing regressions
   (or wins).  [F6r] drops the update ratio to 5%. *)
let read_heavy = [ F6a; F6b; F6r ]

let of_string = function
  | "6a" -> Some F6a
  | "6b" -> Some F6b
  | "6r" -> Some F6r
  | "7a" -> Some F7a
  | "7b" -> Some F7b
  | "8a" -> Some F8a
  | "8b" -> Some F8b
  | _ -> None

let name = function
  | F6a -> "Figure 6(a): LinkedListSet, 5% addAll/removeAll"
  | F6b -> "Figure 6(b): LinkedListSet, 15% addAll/removeAll"
  | F6r -> "Figure 6(r): LinkedListSet read-heavy, 5% updates, 1% bulk"
  | F7a -> "Figure 7(a): SkipListSet, 5% addAll/removeAll"
  | F7b -> "Figure 7(b): SkipListSet, 15% addAll/removeAll"
  | F8a -> "Figure 8(a): HashSet (load factor 512), 5% addAll/removeAll"
  | F8b -> "Figure 8(b): HashSet (load factor 512), 15% addAll/removeAll"

let short_name = function
  | F6a -> "6a"
  | F6b -> "6b"
  | F6r -> "6r"
  | F7a -> "7a"
  | F7b -> "7b"
  | F8a -> "8a"
  | F8b -> "8b"

let structure_of = function
  | F6a | F6b | F6r -> Target.Linked_list
  | F7a | F7b -> Target.Skip_list
  | F8a | F8b -> Target.Hash_set { load_factor = 512 }

let bulk_ratio_of = function
  | F6a | F7a | F8a -> 0.05
  | F6r -> 0.01
  | F6b | F7b | F8b -> 0.15

let update_ratio_of = function F6r -> 0.05 | _ -> 0.20

type series_result = {
  series_name : string;
  points : Sweep.point list;
}

type figure_result = {
  figure : figure;
  cfg : Workload.config;
  threads : int list;
  series : series_result list;
  seed : int;
  duration : float;  (** seconds per run, as requested *)
  runs : int;
}

let run ?(size_exp = 12) ?(threads = [ 1; 2; 4; 8 ]) ?(duration = 0.2)
    ?(runs = 1) ?(seed = 42) ?(detailed = false) figure =
  let cfg =
    Workload.paper ~size_exp
      ~update_ratio:(update_ratio_of figure)
      ~bulk_ratio:(bulk_ratio_of figure) ()
  in
  let series =
    List.map
      (fun (module T : Target.TARGET) ->
        (* The bare sequential structure is only safe single-threaded; its
           line in the paper is the single-thread throughput. *)
        let axis = if T.name = "Sequential" then [ 1 ] else threads in
        { series_name = T.name;
          points =
            Sweep.run_series ~detailed (module T) ~cfg ~threads:axis
              ~duration ~runs ~seed })
      (Target.series_for (structure_of figure))
  in
  { figure; cfg; threads; series; seed; duration; runs }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_result ppf (r : figure_result) =
  Format.fprintf ppf "@.=== %s ===@." (name r.figure);
  Format.fprintf ppf "workload: 2^%d elements, range 2^%d, %.0f%% updates \
                      (%.0f%% bulk)@."
    r.cfg.Workload.size_exp
    (r.cfg.Workload.size_exp + 1)
    (100.0 *. r.cfg.Workload.update_ratio)
    (100.0 *. r.cfg.Workload.bulk_ratio);
  Format.fprintf ppf "%-12s" "series";
  List.iter (fun t -> Format.fprintf ppf "%14s" (Printf.sprintf "%d thr" t)) r.threads;
  Format.fprintf ppf "@.";
  List.iter
    (fun s ->
      (* throughput row *)
      Format.fprintf ppf "%-12s" s.series_name;
      List.iter
        (fun t ->
          match List.find_opt (fun p -> p.Sweep.threads = t) s.points with
          | Some p -> Format.fprintf ppf "%11.1f op/ms" p.Sweep.ops_per_ms
          | None ->
            (* Sequential: single-thread value repeated as the flat line. *)
            (match s.points with
            | [ p ] -> Format.fprintf ppf "%11.1f op/ms" p.Sweep.ops_per_ms
            | _ -> Format.fprintf ppf "%17s" "-"))
        r.threads;
      Format.fprintf ppf "@.";
      if s.series_name <> "Sequential" then begin
        Format.fprintf ppf "%-12s" "  abort rate";
        List.iter
          (fun t ->
            match List.find_opt (fun p -> p.Sweep.threads = t) s.points with
            | Some p ->
              Format.fprintf ppf "%15.1f %%" (100.0 *. p.Sweep.abort_rate)
            | None -> Format.fprintf ppf "%17s" "-")
          r.threads;
        Format.fprintf ppf "@."
      end)
    r.series;
  (* The paper's headline: OE-STM speedup over the best classic STM at the
     highest thread count. *)
  let at_max s =
    List.find_opt
      (fun p -> p.Sweep.threads = List.fold_left max 1 r.threads)
      s.points
  in
  let tp name =
    List.find_opt (fun s -> s.series_name = name) r.series
    |> Fun.flip Option.bind at_max
    |> Option.map (fun p -> p.Sweep.ops_per_ms)
  in
  (match (tp "OE-STM", tp "LSA", tp "TL2", tp "SwissTM") with
  | Some oe, Some a, Some b, Some c ->
    let best_classic = List.fold_left max a [ b; c ] in
    if best_classic > 0.0 then
      Format.fprintf ppf
        "OE-STM speedup over best classic STM at %d threads: %.2fx@."
        (List.fold_left max 1 r.threads)
        (oe /. best_classic)
  | _ -> ())

let pp_csv ppf (r : figure_result) =
  Format.fprintf ppf "figure,series,threads,ops_per_ms,abort_rate@.";
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          Format.fprintf ppf "%s,%s,%d,%.3f,%.4f@." (short_name r.figure)
            s.series_name p.Sweep.threads p.Sweep.ops_per_ms
            p.Sweep.abort_rate)
        s.points)
    r.series
