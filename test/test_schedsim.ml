[@@@txlint.allow "stm-escape"
    "tests drive the escape hatches directly: preloads and post-run \
     state checks are quiescent"]

(* Mechanics of the deterministic scheduler: determinism, replay, process
   isolation of STM state, and bounded exploration. *)

open Stm_core
open Schedsim

let test_interleaving_basic () =
  let log = ref [] in
  let proc tag () =
    for i = 1 to 3 do
      log := (tag, i) :: !log;
      Runtime.schedule_point ()
    done
  in
  let outcome, trace = Sched.run [ proc "a"; proc "b" ] in
  Alcotest.(check bool) "completed" true (Sched.completed outcome);
  Alcotest.(check int) "all six records" 6 (List.length !log);
  Alcotest.(check bool) "interleaved (round robin)" true
    (List.rev !log
    = [ ("a", 1); ("b", 1); ("a", 2); ("b", 2); ("a", 3); ("b", 3) ]);
  Alcotest.(check bool) "trace non-empty" true (trace <> [])

let test_replay_determinism () =
  let run_once schedule =
    let log = ref [] in
    let proc tag () =
      for i = 1 to 4 do
        log := (tag, i) :: !log;
        Runtime.schedule_point ()
      done
    in
    let _, trace =
      match schedule with
      | None -> Sched.run ~pick:(fun ~step ~ready -> (step * 7 + 3) mod List.length ready) [ proc 0; proc 1; proc 2 ]
      | Some s -> Sched.run_schedule ~schedule:s [ proc 0; proc 1; proc 2 ]
    in
    (List.rev !log, List.map (fun c -> c.Sched.chosen) trace)
  in
  let log1, choices = run_once None in
  let log2, _ = run_once (Some choices) in
  Alcotest.(check bool) "replay reproduces the execution" true (log1 = log2)

let test_proc_ids () =
  let seen = ref [] in
  let proc () =
    seen := Runtime.current_proc () :: !seen;
    Runtime.schedule_point ();
    seen := Runtime.current_proc () :: !seen
  in
  let outcome, _ = Sched.run [ proc; proc ] in
  Alcotest.(check bool) "completed" true (Sched.completed outcome);
  Alcotest.(check (list int)) "logical pids stable across yields"
    [ 0; 0; 1; 1 ]
    (List.sort compare !seen)

let test_failure_isolated () =
  let ok = ref false in
  let bad () = failwith "expected" in
  let good () =
    Runtime.schedule_point ();
    ok := true
  in
  let outcome, _ = Sched.run [ bad; good ] in
  Alcotest.(check bool) "other process finished" true !ok;
  Alcotest.(check int) "one failure" 1 (List.length outcome.Sched.failures);
  Alcotest.(check bool) "failure attributed to process 0" true
    (List.mem_assoc 0 outcome.Sched.failures)

let test_max_steps_kills () =
  let spinner () =
    while true do
      Runtime.schedule_point ()
    done
  in
  let outcome, _ = Sched.run ~max_steps:50 [ spinner ] in
  Alcotest.(check (list int)) "spinner killed" [ 0 ] outcome.Sched.killed;
  Alcotest.(check bool) "not completed" false (Sched.completed outcome)

(* A run leaves the instrumentation plane and the yield hook as it found
   them, however it ends.  The closures are compared physically. *)
let same_plane (a : Runtime.plane) (b : Runtime.plane) =
  let same x y =
    match (x, y) with
    | None, None -> true
    | Some f, Some g -> f == g
    | _ -> false
  in
  a.sim = b.sim && same a.trace b.trace && same a.faults b.faults
  && same a.recovery b.recovery && same a.sanitizer b.sanitizer
  && a.durable = b.durable && a.detailed = b.detailed

let test_plane_restored () =
  let check name procs ~max_steps =
    let plane = Runtime.save_plane () and yield = !Runtime.yield_hook in
    let outcome, _ = Sched.run ~max_steps procs in
    Alcotest.(check bool) (name ^ ": plane restored") true
      (same_plane plane (Runtime.save_plane ()));
    Alcotest.(check bool) (name ^ ": yield hook restored") true
      (yield == !Runtime.yield_hook);
    outcome
  in
  let step () = Runtime.schedule_point () in
  let done_ = check "completes" [ step; step ] ~max_steps:100 in
  Alcotest.(check bool) "completes: completed" true (Sched.completed done_);
  let raised =
    check "raises" [ (fun () -> step (); failwith "expected"); step ]
      ~max_steps:100
  in
  Alcotest.(check int) "raises: one failure" 1
    (List.length raised.Sched.failures);
  let spin () = while true do step () done in
  let cut = check "cut at max_steps" [ spin; spin ] ~max_steps:10 in
  Alcotest.(check (list int)) "cut: both killed" [ 0; 1 ]
    (List.sort compare cut.Sched.killed)

(* STM transactions driven by the scheduler: increments from two logical
   processes must never be lost, whatever the interleaving. *)
let counter_slot : (int, unit -> int) Hashtbl.t = Hashtbl.create 1

let test_explore_counter (module S : Stm_intf.S) () =
  (* Rebuild the scenario per schedule: wrap in a fresh closure each time. *)
  let scenario =
    { Explore.procs =
        (fun () ->
          let c = S.tvar 0 in
          let incr_proc () =
            for _ = 1 to 2 do
              S.atomic (fun ctx -> S.write ctx c (S.read ctx c + 1))
            done
          in
          (* Stash the tvar so check can see it. *)
          Hashtbl.replace counter_slot 0 (fun () -> S.peek c);
          [ incr_proc; incr_proc ]);
      check =
        (fun outcome ->
          (not (Sched.completed outcome))
          || (Hashtbl.find counter_slot 0) () = 4) }
  in
  match Explore.explore ~max_runs:4_000 scenario with
  | Explore.Violation { schedule; _ } ->
    Alcotest.failf "lost update under schedule [%s]"
      (String.concat ";" (List.map string_of_int schedule))
  | Explore.All_ok { explored; _ } ->
    Alcotest.(check bool) "explored several interleavings" true (explored > 10)
  | Explore.Out_of_budget _ -> ()

let test_sampler_finds_known_violation () =
  (* The random-walk sampler must find the Fig. 1 drop-composition
     violation too (the exhaustive explorer's job, sampled). *)
  let module S = Oestm.E_broken in
  let holds = ref (fun () -> true) in
  let scenario =
    { Explore.procs =
        (fun () ->
          let x = S.tvar false and y = S.tvar false in
          let contains tv = S.atomic ~mode:Elastic (fun ctx -> S.read ctx tv) in
          let insert tv =
            S.atomic ~mode:Elastic (fun ctx -> S.write ctx tv true)
          in
          let iia ~target ~guard =
            S.atomic ~mode:Elastic (fun _ ->
                if not (contains guard) then insert target)
          in
          holds := (fun () -> not (S.peek x && S.peek y));
          [ (fun () -> iia ~target:x ~guard:y);
            (fun () -> iia ~target:y ~guard:x) ]);
      check = (fun _ -> !holds ()) }
  in
  match Explore.sample ~runs:3_000 ~seed:5 scenario with
  | Explore.Violation { schedule; _ } ->
    (* And the violating schedule must replay. *)
    let procs = scenario.Explore.procs () in
    let _ = Sched.run_schedule ~schedule procs in
    Alcotest.(check bool) "replay reproduces" false (!holds ())
  | Explore.All_ok { explored; _ } | Explore.Out_of_budget { explored; _ } ->
    Alcotest.failf "sampler missed the violation in %d runs" explored

let test_sampler_accepts_safe_scenario () =
  let module S = Oestm.Oe in
  let holds = ref (fun () -> true) in
  let scenario =
    { Explore.procs =
        (fun () ->
          let c = S.tvar 0 in
          holds := (fun () -> S.peek c = 4);
          let incr_proc () =
            for _ = 1 to 2 do
              S.atomic (fun ctx -> S.write ctx c (S.read ctx c + 1))
            done
          in
          [ incr_proc; incr_proc ]);
      check = (fun o -> (not (Sched.completed o)) || !holds ()) }
  in
  match Explore.sample ~runs:300 ~seed:9 scenario with
  | Explore.Violation { schedule; _ } ->
    Alcotest.failf "lost update under sampled schedule [%s]"
      (String.concat ";" (List.map string_of_int schedule))
  | Explore.All_ok _ | Explore.Out_of_budget _ -> ()

(* A process killed while it holds the serial token unwinds as itself, so
   its escalation bracket releases the token.  Were the token left held,
   every later transaction would park behind a process that no longer
   exists. *)
let test_kill_releases_serial_token () =
  let module S = Oestm.Oe in
  let tv = S.tvar 0 in
  let first = ref true in
  let holder () =
    S.atomic (fun ctx ->
        if !first then begin
          first := false;
          Control.abort_tx Control.Explicit
        end;
        (* Escalated: keep reading under the token until the run is cut. *)
        while true do
          ignore (S.read ctx tv)
        done)
  in
  let other () = S.atomic (fun ctx -> S.write ctx tv 1) in
  let finally () =
    (* Keep a regression from wedging the tests that follow. *)
    ignore (Runtime.Serial.force_clear ~expected:(Runtime.Serial.holder_id ()));
    Runtime.tx_timeout_ns := None
  in
  Fun.protect ~finally @@ fun () ->
  let outcome, _ =
    Explore.with_retry_policy ~retry_cap:0 ~starvation_mode:`Fallback
      (fun () ->
        Sched.run ~max_steps:20
          ~pick:(fun ~step:_ ~ready -> List.length ready - 1)
          [ other; holder ])
  in
  Alcotest.(check bool) "the holder escalated" false !first;
  Alcotest.(check bool) "the holder was killed" true
    (List.mem 1 outcome.Sched.killed);
  Alcotest.(check int) "token released" (-1) (Runtime.Serial.holder_id ());
  Runtime.tx_timeout_ns := Some 500_000_000;
  match S.atomic (fun ctx -> S.write ctx tv 2) with
  | () -> Alcotest.(check int) "a later transaction commits" 2 (S.peek tv)
  | exception Control.Timeout _ ->
    Alcotest.fail "a later transaction parked behind the killed holder"

(* A one-shot fault is per process: armed in simulated process 0, it
   never fires in process 1. *)
let test_one_shot_stays_in_its_process () =
  let module S = Oestm.Oe in
  let tv = S.tvar 0 in
  let armer () = Faults.arm_crash_after ~points:1 in
  let victim () = S.atomic (fun ctx -> S.write ctx tv 1) in
  Fun.protect ~finally:Faults.disable @@ fun () ->
  let outcome, _ = Sched.run [ armer; victim ] in
  Alcotest.(check int) "no crash recorded" 0
    (List.length outcome.Sched.failures);
  Alcotest.(check bool) "completed" true (Sched.completed outcome);
  Alcotest.(check int) "the other process committed" 1 (S.peek tv)

let suite =
  [ Alcotest.test_case "basic interleaving" `Quick test_interleaving_basic;
    Alcotest.test_case "sampler finds the Fig. 1 violation" `Slow
      test_sampler_finds_known_violation;
    Alcotest.test_case "sampler accepts safe scenarios" `Slow
      test_sampler_accepts_safe_scenario;
    Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
    Alcotest.test_case "logical process ids" `Quick test_proc_ids;
    Alcotest.test_case "failure isolation" `Quick test_failure_isolated;
    Alcotest.test_case "max_steps kills spinners" `Quick test_max_steps_kills;
    Alcotest.test_case "a run restores the plane and the yield hook" `Quick
      test_plane_restored;
    Alcotest.test_case "killing the serial holder releases the token" `Quick
      test_kill_releases_serial_token;
    Alcotest.test_case "a one-shot fires only in its own process" `Quick
      test_one_shot_stays_in_its_process;
    Alcotest.test_case "explore: TL2 counter" `Slow
      (test_explore_counter (module Classic_stm.Tl2));
    Alcotest.test_case "explore: OE-STM counter" `Slow
      (test_explore_counter (module Oestm.Oe)) ]
