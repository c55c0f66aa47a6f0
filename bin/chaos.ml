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
module Chaos = Harness.Chaos
module Report = Harness.Report

let rec show : Report.json -> string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | List l -> "[" ^ String.concat "," (List.map show l) ^ "]"
  | Obj kv ->
    "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ show v) kv) ^ "}"

(* Run one lane over [engines]: print each result's summary line, from
   the fields of its report entry, as soon as it lands; write the report;
   exit 0 iff every entry is ok and the sanitizer saw nothing. *)
let lane engines json run entry report =
  let results =
    List.concat_map
      (fun e ->
        let rs = run e in
        List.iter
          (fun r ->
            let (en : Chaos.entry) = entry r in
            Printf.printf "%-10s %s  %s\n%!" en.name
              (if en.verdict then "ok  " else "FAIL")
              (String.concat " "
                 (List.map (fun (k, v) -> k ^ "=" ^ show v) en.fields)))
          rs;
        rs)
      engines
  in
  Option.iter
    (fun file ->
      Report.write_file file (report results);
      Printf.printf "## wrote %s\n%!" file)
    json;
  let san = Harness.Knobs.sanitizer_verdict () in
  if List.for_all (fun r -> (entry r).Chaos.verdict) results && san = 0 then 0
  else 1

(* Domain-kill mode: for each engine, crash killer domains mid-commit and
   check that survivors keep committing with recovery on AND that the same
   scenario wedges with recovery off.  Both directions must pass. *)
let run_kill engines json lease_ns sanitizer =
  Printf.printf "## Chaos domain-kill: lease=%dns%s\n%!"
    (Option.value lease_ns ~default:Chaos.default_lease_ns)
    (if sanitizer then ", sanitizer on" else "");
  lane engines json
    (fun e ->
      List.map (fun recovery -> Chaos.run_kill ?lease_ns ~recovery e)
        [ true; false ])
    Chaos.kill_entry Chaos.kill_report_json

(* Crash-restart mode: for each tvar engine, fork child workers that
   commit durable transfers into a write-ahead log, SIGKILL them
   mid-commit across the seed range, recover in the parent, and check
   conservation plus prefix durability.  The same scenario then runs as a
   negative control with fsync disabled (sync_every = 0), which must
   demonstrably lose committed records — proving the kill actually lands
   before the data is safe, so the positive direction is meaningful.
   Inputs under which the lane would check nothing are usage errors (exit
   124) that run nothing: a positive direction that never syncs (it would
   be a second negative control), and a selection with no tvar engine. *)
let run_restart engines json seeds (wal : Harness.Knobs.wal) =
  match (List.filter (fun e -> e <> Chaos.Boost) engines, wal.sync_every) with
  | _, Some n when n < 1 ->
    `Error
      ( true,
        "crash-restart: --wal-sync-every must be at least 1; the lane \
         already runs the never-syncing negative control itself" )
  | [], _ ->
    `Error
      ( true,
        "crash-restart: no tvar engine selected; boosting is excluded \
         because its undo log is lost on a crash (DESIGN.md 5h)" )
  | engines, _ ->
    let seeds = List.init seeds (fun i -> i + 1) in
    Printf.printf
      "## Chaos crash-restart: %d seed(s)/engine (+ no-sync negative \
       control)\n%!"
      (List.length seeds);
    `Ok
      (lane engines json
         (fun e ->
           List.map
             (fun sync_every ->
               Chaos.run_restart ~seeds ?sync_every ?wal_path:wal.path e)
             [ wal.sync_every; Some 0 ])
         Chaos.restart_entry Chaos.restart_report_json)

let run_faults engines json seeds runs stress_domains stress_txns sanitizer
    recovery =
  let seeds = List.init seeds (fun i -> i + 1) in
  Printf.printf
    "## Chaos: %d seed(s)/engine, %d schedule(s)/seed, faults %s%s%s\n%!"
    (List.length seeds) runs
    (Stm_core.Faults.to_string Chaos.default_faults)
    (if sanitizer then ", sanitizer on" else "")
    (match recovery with
    | Some lease -> Printf.sprintf ", recovery lease %dns" lease
    | None -> "");
  lane engines json
    (fun e ->
      [ Chaos.run_engine ~seeds ~runs_per_seed:runs ~stress_domains
          ~stress_txns e ])
    Chaos.engine_entry Chaos.report_json

(* Every count flag takes a whole number of at least 1; anything else is
   a usage error (exit 124) and runs nothing. *)
let count =
  Harness.Knobs.conv_of
    (fun s ->
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ -> invalid_arg (Printf.sprintf "%S is not a count of at least 1" s))
    string_of_int

let engines =
  Arg.(value
       & opt
           (list (Harness.Knobs.conv_of Chaos.engine_of_string Chaos.engine_name))
           Chaos.all_engines
       & info [ "engine"; "e" ] ~docv:"LIST"
           ~doc:"Comma-separated engines: oe, tl2, view, boost (default \
                 all).")

let json =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write a machine-readable JSON chaos report to $(docv).")

let seeds =
  Arg.(value & opt count 20 & info [ "seeds" ] ~docv:"N"
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
             (no tvar write set); selecting only boosting, or \
             --wal-sync-every below 1, is a usage error.")
    Term.(ret (const run_restart $ engines $ json $ seeds $ Harness.Knobs.wal))

let cmd =
  let runs =
    Arg.(value & opt count 30 & info [ "runs"; "r" ] ~docv:"N"
           ~doc:"Sampled schedules per seed.")
  in
  let stress_domains =
    Arg.(value & opt count 4 & info [ "stress-domains" ] ~docv:"N"
           ~doc:"Domains in the multi-domain stress run.")
  in
  let stress_txns =
    Arg.(value & opt count 200 & info [ "stress-txns" ] ~docv:"N"
           ~doc:"Transactions per domain in the stress run.")
  in
  Cmd.group
    ~default:
      Term.(const run_faults $ engines $ json $ seeds $ runs $ stress_domains
            $ stress_txns $ Harness.Knobs.sanitizer
            $ Harness.Knobs.recovery
                ~default_lease_ns:Chaos.default_lease_ns ())
    (Cmd.info "chaos"
       ~doc:"Model-check all STM engines under deterministic fault injection")
    [ kill; crash_restart ]

let () = exit (Cmd.eval' cmd)
