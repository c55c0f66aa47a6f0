(* Chaos regression: every engine model-checked under fault injection.

   This is the acceptance test for the robustness layer: across 20 fault
   seeds per engine no schedule may show a torn read, lose conservation or
   let any exception (Starvation included) escape, the forced-fallback
   scenario must drive the serial-irrevocable path, and every applicable
   fault kind must actually have fired at least once. *)

open Stm_core

let check_engine engine =
  let r = Harness.Chaos.run_engine ~runs_per_seed:20 engine in
  let name = r.Harness.Chaos.engine in
  Alcotest.(check int)
    (name ^ ": 20 seeds")
    20
    (List.length r.Harness.Chaos.seeds);
  Alcotest.(check (list int))
    (name ^ ": no seed shows a safety violation")
    [] r.Harness.Chaos.failed_seeds;
  Alcotest.(check bool)
    (name ^ ": multi-domain conservation holds under faults")
    true r.Harness.Chaos.stress_ok;
  Alcotest.(check bool) (name ^ ": chaos verdict ok") true
    (Harness.Chaos.ok r);
  Alcotest.(check bool)
    (name ^ ": schedules were actually explored")
    true
    (r.Harness.Chaos.schedules > 0);
  Alcotest.(check bool)
    (name ^ ": work committed under faults")
    true
    (r.Harness.Chaos.stats.Stats.commits > 0);
  (* The forced-fallback scenario guarantees escalations on every seed. *)
  Alcotest.(check bool)
    (name ^ ": serial-irrevocable fallback was exercised")
    true
    (r.Harness.Chaos.stats.Stats.fallbacks > 0);
  Alcotest.(check int)
    (name ^ ": no deadline configured, so no timeouts")
    0 r.Harness.Chaos.stats.Stats.timeouts;
  (* Every fault kind applicable to the engine must have fired.  Boosting
     has no read-set validation, so Validation_fail cannot occur there.
     The armed one-shot kinds (Crash_domain, User_raise) are not part of
     the probabilistic chaos spec — the domain-kill scenario and the
     exception-safety suite place those deterministically. *)
  let applicable =
    match engine with
    | Harness.Chaos.Boost ->
      [ Faults.Spurious_abort; Faults.Lock_fail; Faults.Delay ]
    | _ ->
      [ Faults.Spurious_abort; Faults.Lock_fail; Faults.Validation_fail;
        Faults.Delay ]
  in
  List.iter
    (fun k ->
      let n = List.assoc k r.Harness.Chaos.injected in
      Alcotest.(check bool)
        (Printf.sprintf "%s: injected at least one %s" name
           (Faults.kind_name k))
        true (n > 0))
    applicable

let test_oe () = check_engine Harness.Chaos.OE
let test_tl2 () = check_engine Harness.Chaos.TL2
let test_view () = check_engine Harness.Chaos.View
let test_boost () = check_engine Harness.Chaos.Boost

let test_engine_names () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Harness.Chaos.engine_name e ^ " round-trips")
        true
        (Harness.Chaos.engine_of_string (Harness.Chaos.engine_name e) = e))
    Harness.Chaos.all_engines;
  Alcotest.check_raises "unknown engine rejected"
    (Invalid_argument "Chaos.engine_of_string: unknown engine z80")
    (fun () -> ignore (Harness.Chaos.engine_of_string "z80"))

(* Every report kind, one input each: the fault lane's from a short OE
   run, the kill lane's from a small TL2 run, and the crash-restart lane's
   from a fixed result (that lane forks, which the test runner does not;
   a [bin/dune] rule runs it for real).  Each must round-trip as JSON with
   exactly the listed top-level and per-entry keys. *)
let test_report_shape () =
  let module C = Harness.Chaos in
  let module R = Harness.Report in
  let faults =
    C.run_engine ~seeds:[ 1; 2 ] ~runs_per_seed:3 ~stress_domains:2
      ~stress_txns:20 C.OE
  in
  let kill =
    C.run_kill ~killers:1 ~survivors:2 ~txns:16 ~lease_ns:5_000_000
      ~recovery:true C.TL2
  in
  let restart =
    { C.rr_engine = "TL2"; rr_sync_every = 1; rr_seeds = [ 1; 2 ];
      rr_failed_seeds = []; rr_commits = 10; rr_acked = 10;
      rr_recovered = 10; rr_torn_seeds = 0; rr_lost_acked_seeds = [];
      rr_lost_commit_seeds = [] }
  in
  let check (kind, json, top, key, entry_keys) =
    let keys = function
      | R.Obj kv -> List.sort compare (List.map fst kv)
      | _ -> Alcotest.failf "%s: not a JSON object" kind
    in
    match R.of_string (R.to_string json) with
    | Error e -> Alcotest.failf "%s report is not valid JSON: %s" kind e
    | Ok parsed ->
      Alcotest.(check (list string)) (kind ^ ": top-level keys")
        (List.sort compare
           ([ "schema_version"; "kind"; key ] @ top))
        (keys parsed);
      Alcotest.(check bool) (kind ^ ": schema version") true
        (R.member "schema_version" parsed = Some (R.Int R.schema_version));
      Alcotest.(check bool) (kind ^ ": kind") true
        (R.member "kind" parsed = Some (R.Str kind));
      (match R.member key parsed with
      | Some (R.List [ e ]) ->
        Alcotest.(check (list string)) (kind ^ ": entry keys")
          (List.sort compare ([ "engine"; "ok" ] @ entry_keys))
          (keys e)
      | _ -> Alcotest.failf "%s: expected exactly one %s entry" kind key)
  in
  List.iter check
    [ ( "chaos", C.report_json [ faults ], [ "faults"; "sanitizer"; "recovery" ],
        "engines",
        [ "seeds"; "runs_per_seed"; "schedules"; "failed_seeds"; "stress_ok";
          "commits"; "aborts"; "starvations"; "fallbacks"; "timeouts";
          "san_violations"; "injected" ] );
      ( "chaos-kill", C.kill_report_json [ kill ], [ "sanitizer" ], "kills",
        [ "recovery"; "lease_ns"; "killers"; "survivors"; "txns_per_survivor";
          "survivor_commits"; "conserved"; "wedged"; "crashes";
          "orphan_steals"; "lease_expiries"; "poisoned_commits";
          "san_violations" ] );
      ( "chaos-restart", C.restart_report_json [ restart ], [], "restarts",
        [ "sync_every"; "seeds"; "failed_seeds"; "commits"; "acked";
          "recovered"; "torn_seeds"; "lost_acked_seeds"; "lost_commit_seeds" ]
      ) ]

let suite =
  [ Alcotest.test_case "engine names" `Quick test_engine_names;
    Alcotest.test_case "report shape" `Quick test_report_shape;
    Alcotest.test_case "OE-STM survives chaos" `Slow test_oe;
    Alcotest.test_case "TL2 survives chaos" `Slow test_tl2;
    Alcotest.test_case "View-STM survives chaos" `Slow test_view;
    Alcotest.test_case "boosting survives chaos" `Slow test_boost ]
