(* CLI for the chaos (fault-injection) test harness.

   Runs every engine's model-checked transfer workload under injected
   faults across a seed range, plus the forced-fallback scenario and a
   multi-domain stress run, and prints one summary line per engine.
   Exits non-zero if any engine shows a safety violation, so CI can gate
   on it directly.  The subcommands [kill] and [crash-restart] run the
   domain-kill and the crash-restart scenarios instead.

   Examples:
     dune exec bin/chaos.exe --                       # 20 seeds, all engines
     dune exec bin/chaos.exe -- --seeds 5 --runs 10   # short budget
     dune exec bin/chaos.exe -- --engine oe --json chaos.json
     dune exec bin/chaos.exe -- kill --sanitizer
     dune exec bin/chaos.exe -- crash-restart --seeds 5 *)

open Cmdliner

let write_json json report =
  Option.iter
    (fun file ->
      Harness.Report.write_file file report;
      Printf.printf "## wrote %s\n%!" file)
    json

let verdict ok results =
  let san = Harness.Knobs.sanitizer_verdict () in
  if List.for_all ok results && san = 0 then 0 else 1

(* Domain-kill mode: for each engine, crash killer domains mid-commit and
   check that survivors keep committing with recovery on AND that the same
   scenario wedges with recovery off.  Both directions must pass. *)
let run_kill engines json lease_ns sanitizer =
  Printf.printf "## Chaos domain-kill: lease=%dns%s\n%!"
    (Option.value lease_ns ~default:Harness.Chaos.default_lease_ns)
    (if sanitizer then ", sanitizer on" else "");
  let results =
    List.concat_map
      (fun e ->
        let on, off = Harness.Chaos.run_kill_both ?lease_ns e in
        List.iter
          (fun r ->
            Printf.printf
              "%-10s recovery=%-3s %s  commits=%d conserved=%b wedged=%b \
               crashes=%d steals=%d expiries=%d poisoned=%d san_violations=%d\n\
               %!"
              r.Harness.Chaos.k_engine
              (if r.Harness.Chaos.k_recovery then "on" else "off")
              (if Harness.Chaos.kill_ok r then "ok  " else "FAIL")
              r.Harness.Chaos.k_commits r.Harness.Chaos.k_conserved
              r.Harness.Chaos.k_wedged r.Harness.Chaos.k_crashes
              r.Harness.Chaos.k_orphan_steals
              r.Harness.Chaos.k_lease_expiries
              r.Harness.Chaos.k_poisoned_commits
              r.Harness.Chaos.k_san_violations)
          [ on; off ];
        [ on; off ])
      engines
  in
  write_json json (Harness.Chaos.kill_report_json results);
  verdict Harness.Chaos.kill_ok results

(* Crash-restart mode: for each tvar engine, fork child workers that
   commit durable transfers into a write-ahead log, SIGKILL them
   mid-commit across the seed range, recover in the parent, and check
   conservation plus prefix durability.  The same scenario then runs as a
   negative control with fsync disabled (sync_every = 0), which must
   demonstrably lose committed records — proving the kill actually lands
   before the data is safe, so the positive direction is meaningful. *)
let run_restart engines json seeds (wal : Harness.Knobs.wal) =
  let engines =
    List.filter (fun e -> e <> Harness.Chaos.Boost) engines
  in
  let seeds = List.init seeds (fun i -> i + 1) in
  let print r =
    Printf.printf
      "%-10s sync_every=%-2d %s  commits=%d acked=%d recovered=%d \
       torn_seeds=%d lost_acked=%d lost_commits=%d%s\n%!"
      r.Harness.Chaos.rr_engine r.Harness.Chaos.rr_sync_every
      (if Harness.Chaos.restart_ok r then "ok  " else "FAIL")
      r.Harness.Chaos.rr_commits r.Harness.Chaos.rr_acked
      r.Harness.Chaos.rr_recovered r.Harness.Chaos.rr_torn_seeds
      (List.length r.Harness.Chaos.rr_lost_acked_seeds)
      (List.length r.Harness.Chaos.rr_lost_commit_seeds)
      (match r.Harness.Chaos.rr_failed_seeds with
      | [] -> ""
      | l -> "  failed_seeds=" ^ String.concat "," (List.map string_of_int l))
  in
  Printf.printf
    "## Chaos crash-restart: %d seed(s)/engine (+ no-sync negative control)\n%!"
    (List.length seeds);
  let wal_path = wal.path in
  let results =
    List.concat_map
      (fun e ->
        let on =
          Harness.Chaos.run_restart ~seeds ?sync_every:wal.sync_every
            ?wal_path e
        in
        print on;
        let off = Harness.Chaos.run_restart ~seeds ~sync_every:0 ?wal_path e in
        print off;
        [ on; off ])
      engines
  in
  write_json json (Harness.Chaos.restart_report_json results);
  verdict Harness.Chaos.restart_ok results

let run_faults engines json seeds runs stress_domains stress_txns sanitizer
    recovery =
  let seeds = List.init seeds (fun i -> i + 1) in
  Printf.printf
    "## Chaos: %d seed(s)/engine, %d schedule(s)/seed, faults %s%s%s\n%!"
    (List.length seeds) runs
    (Stm_core.Faults.to_string Harness.Chaos.default_faults)
    (if sanitizer then ", sanitizer on" else "")
    (match recovery with
    | Some lease -> Printf.sprintf ", recovery lease %dns" lease
    | None -> "");
  let results =
    List.map
      (fun e ->
        let r =
          Harness.Chaos.run_engine ~seeds ~runs_per_seed:runs ~stress_domains
            ~stress_txns e
        in
        Printf.printf
          "%-10s %s  schedules=%d commits=%d aborts=%d fallbacks=%d \
           timeouts=%d san_violations=%d injected=[%s]%s\n%!"
          r.Harness.Chaos.engine
          (if Harness.Chaos.ok r then "ok  " else "FAIL")
          r.Harness.Chaos.schedules r.Harness.Chaos.stats.Stm_core.Stats.commits
          r.Harness.Chaos.stats.Stm_core.Stats.aborts
          r.Harness.Chaos.stats.Stm_core.Stats.fallbacks
          r.Harness.Chaos.stats.Stm_core.Stats.timeouts
          r.Harness.Chaos.san_violations
          (String.concat " "
             (List.map
                (fun (k, n) ->
                  Printf.sprintf "%s=%d" (Stm_core.Faults.kind_name k) n)
                r.Harness.Chaos.injected))
          (match r.Harness.Chaos.failed_seeds with
          | [] -> ""
          | l ->
            "  failed_seeds="
            ^ String.concat "," (List.map string_of_int l))
        ;
        r)
      engines
  in
  write_json json (Harness.Chaos.report_json results);
  verdict Harness.Chaos.ok results

let engines =
  Arg.(value
       & opt
           (list
              (Harness.Knobs.conv_of Harness.Chaos.engine_of_string
                 Harness.Chaos.engine_name))
           Harness.Chaos.all_engines
       & info [ "engine"; "e" ] ~docv:"LIST"
           ~doc:"Comma-separated engines: oe, tl2, view, boost (default \
                 all).")

let json =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write a machine-readable JSON chaos report to $(docv).")

let seeds =
  Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N"
         ~doc:"Seeds 1..$(docv) per engine: fault seeds, or kill timings \
               in crash-restart.")

let kill =
  Cmd.v
    (Cmd.info "kill"
       ~doc:"Crash domains mid-commit (orphaning their locks) and require \
             that survivors keep committing with recovery on, and that \
             the same scenario wedges with recovery off.")
    Term.(const run_kill $ engines $ json $ Harness.Knobs.lease_ns
          $ Harness.Knobs.sanitizer)

let crash_restart =
  Cmd.v
    (Cmd.info "crash-restart"
       ~doc:"Fork child workers committing durable transfers into a \
             write-ahead log, SIGKILL them mid-commit across the seed \
             range, recover in the parent and check conservation and \
             prefix durability; a no-sync negative control must \
             demonstrably lose committed records.  Boosting is skipped \
             (no tvar write set).")
    Term.(const run_restart $ engines $ json $ seeds $ Harness.Knobs.wal)

let cmd =
  let runs =
    Arg.(value & opt int 30 & info [ "runs"; "r" ] ~docv:"N"
           ~doc:"Sampled schedules per seed.")
  in
  let stress_domains =
    Arg.(value & opt int 4 & info [ "stress-domains" ] ~docv:"N"
           ~doc:"Domains in the multi-domain stress run.")
  in
  let stress_txns =
    Arg.(value & opt int 200 & info [ "stress-txns" ] ~docv:"N"
           ~doc:"Transactions per domain in the stress run.")
  in
  Cmd.group
    ~default:
      Term.(const run_faults $ engines $ json $ seeds $ runs $ stress_domains
            $ stress_txns $ Harness.Knobs.sanitizer
            $ Harness.Knobs.recovery
                ~default_lease_ns:Harness.Chaos.default_lease_ns ())
    (Cmd.info "chaos"
       ~doc:"Model-check all STM engines under deterministic fault injection")
    [ kill; crash_restart ]

let () = exit (Cmd.eval' cmd)
