(* CLI regenerating the paper's evaluation figures.

   Examples:
     dune exec bin/figures.exe                              # every figure
     dune exec bin/figures.exe -- --figure 6a,6b,6r --clock gv4 \
       --json NEW.json --compare BENCH_6b.json --regress-pct 40
     dune exec bin/figures.exe -- --figure 6b --full        # paper settings *)

open Cmdliner

let run_figures figures threads duration runs size_exp seed full json
    comparison () sanitizer recovery () =
  if sanitizer then
    print_endline "# sanitizer on: numbers are NOT comparable to clean runs";
  Option.iter (Printf.printf "# recovery on: lease %dns\n%!") recovery;
  let threads, duration, runs =
    if full then ([ 1; 2; 4; 8; 16; 32; 64 ], 10.0, 10)
    else (threads, duration, runs)
  in
  (* Latency/footprint histograms are only paid for when they will be
     reported; the plain tables match the paper's counters-only runs. *)
  let detailed = json <> None in
  Printf.printf
    "# Composing Relaxed Transactions - evaluation reproduction\n\
     # threads axis: %s; duration/point: %.2fs; runs/point: %d; 2^%d elements\n\
     # host: %d hardware core(s) - see EXPERIMENTS.md for the simulation note\n%!"
    (String.concat "," (List.map string_of_int threads))
    duration runs size_exp
    (Domain.recommended_domain_count ());
  let results =
    List.map
      (fun f ->
        let r =
          Harness.Figures.run ~size_exp ~threads ~duration ~runs ~seed
            ~detailed f
        in
        Format.printf "%a%!" Harness.Figures.pp_result r;
        r)
      (List.concat figures)
  in
  let report = Harness.Report.report results in
  Option.iter
    (fun file ->
      Harness.Report.write_file file report;
      Printf.printf "# wrote %s\n%!" file)
    json;
  let compared =
    match comparison with
    | None -> 0
    | Some (baseline_file, regress_pct) ->
      Harness.Compare.check ~baseline_file ?regress_pct report
  in
  max compared (Harness.Knobs.sanitizer_verdict ())

let figures =
  let every = Harness.Figures.(F6r :: all) in
  Arg.(value
       & opt
           (list
              (enum
                 (("all", Harness.Figures.all)
                 :: List.map
                      (fun f -> (Harness.Figures.short_name f, [ f ]))
                      every)))
           [ Harness.Figures.all ]
       & info [ "figure"; "f" ] ~docv:"FIGS"
           ~doc:"Comma-separated figures to regenerate: 6a, 6b, 7a, 7b, \
                 8a, 8b, all (those six), or 6r, the read-heavy companion \
                 of 6a/6b (5% updates, 1% bulk), where per-read write-set \
                 lookups and read-set validation dominate.")

(* The benchmark structures are not registered as persistent tvars, so
   with a WAL open the sweep pays the per-commit durability hook but
   appends nothing (see EXPERIMENTS.md). *)
let durability =
  let enable { Harness.Knobs.path; sync_every } =
    match path with
    | None when sync_every <> None -> Error (`Msg "--wal-sync-every needs --wal")
    | None -> Ok ()
    | Some path ->
      Persist.enable ?sync_every ~path ();
      Printf.printf "# durability on: wal=%s sync_every=%d\n%!" path
        (Persist.wal_sync_every ());
      Ok ()
  in
  Term.(term_result ~usage:true (const enable $ Harness.Knobs.wal))

(* [--regress-pct] gates a comparison, so it is refused without one rather
   than silently doing nothing. *)
let comparison =
  let baseline =
    Arg.(value & opt (some file) None & info [ "compare" ] ~docv:"FILE"
           ~doc:"After the sweep, print per-series ops/ms deltas against \
                 the JSON report $(docv), e.g. BENCH_6a.json.")
  in
  let regress_pct =
    Arg.(value & opt (some float) None & info [ "regress-pct" ] ~docv:"P"
           ~doc:"With --compare, exit 1 if any series lost more than \
                 $(docv) percent of the baseline's ops/ms.")
  in
  let pair baseline regress_pct =
    match (baseline, regress_pct) with
    | None, Some _ -> Error (`Msg "--regress-pct needs --compare")
    | None, None -> Ok None
    | Some b, r -> Ok (Some (b, r))
  in
  Term.(term_result ~usage:true (const pair $ baseline $ regress_pct))

let cmd =
  let threads =
    Arg.(value & opt (list int) [ 1; 2; 4; 8 ] & info [ "threads"; "t" ]
           ~docv:"LIST" ~doc:"Comma-separated thread counts.")
  in
  let duration =
    Arg.(value & opt float 0.2 & info [ "duration"; "d" ] ~docv:"SECONDS"
           ~doc:"Measured duration per point.")
  in
  let runs =
    Arg.(value & opt int 2 & info [ "runs"; "r" ] ~docv:"N"
           ~doc:"Runs averaged per point.")
  in
  let size_exp =
    Arg.(value & opt int 12 & info [ "size-exp" ] ~docv:"K"
           ~doc:"log2 of the initial structure size (paper: 12).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Workload seed (runs are deterministic given a seed).")
  in
  let full =
    Arg.(value & flag & info [ "full" ]
           ~doc:"Paper settings: threads 1..64, 10 runs of 10s per point.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Additionally write a machine-readable JSON report \
                 (schema in EXPERIMENTS.md) to $(docv), e.g. \
                 BENCH_6a.json.  Enables detailed metrics (latency \
                 percentiles, rw-set sizes, retry depths).")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the figures of Composing Relaxed Transactions (IPDPS'13)")
    (* The knobs that change process-wide state come last, so they apply
       only once every other argument converted. *)
    Term.(const run_figures $ figures $ threads $ duration $ runs $ size_exp
          $ seed $ full $ json $ comparison $ Harness.Knobs.engine
          $ Harness.Knobs.sanitizer $ Harness.Knobs.recovery () $ durability)

let () = exit (Cmd.eval' cmd)
