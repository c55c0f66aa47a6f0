(* Property coverage for the contention-management plumbing that every
   STM shares: the randomised exponential backoff and the top-level retry
   policy of the attempt bracket ([Attempt.Make]), run here around a stub
   engine that tracks nothing. *)

open Stm_core

(* Run [f] with the plane's simulation field set (to the domain's id) so
   Backoff.once does not actually spin — these are semantic tests, not
   timing tests. *)
let simulated f =
  let saved = Runtime.save_plane () in
  Runtime.plane.sim <- Some (fun () -> (Domain.self () :> int));
  Fun.protect ~finally:(fun () -> Runtime.restore_plane saved) f

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)
(* ------------------------------------------------------------------ *)

let test_backoff_growth_bounded () =
  simulated (fun () ->
      let b = Backoff.create () in
      Alcotest.(check int) "initial window" 16 (Backoff.window b);
      (* Exact doubling until the cap... *)
      for i = 1 to 9 do
        Backoff.once b;
        Alcotest.(check int)
          (Printf.sprintf "window after %d waits" i)
          (16 lsl i) (Backoff.window b)
      done;
      (* ...then clamped, no matter how many more waits happen. *)
      for _ = 1 to 100 do
        Backoff.once b
      done;
      Alcotest.(check int) "window clamped at max" Backoff.max_window
        (Backoff.window b))

let backoff_monotone_prop =
  QCheck.Test.make ~name:"Backoff: window monotone and within bounds"
    ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (seed, waits) ->
      simulated (fun () ->
          let b = Backoff.create ~seed () in
          let ok = ref true in
          let prev = ref (Backoff.window b) in
          for _ = 1 to waits do
            Backoff.once b;
            let w = Backoff.window b in
            if not (w >= !prev && w >= 16 && w <= Backoff.max_window) then
              ok := false;
            prev := w
          done;
          !ok))

(* Under the simulated flag, Backoff.once must not spin: it only yields a
   scheduling point.  We count them through the yield hook. *)
let test_backoff_simulated_yields () =
  simulated (fun () ->
      let yields = ref 0 in
      let saved = !Runtime.yield_hook in
      Runtime.yield_hook := (fun _ -> incr yields);
      Fun.protect
        ~finally:(fun () -> Runtime.yield_hook := saved)
        (fun () ->
          let b = Backoff.create () in
          for _ = 1 to 5 do
            Backoff.once b
          done;
          Alcotest.(check int) "one scheduling point per wait" 5 !yields))

(* ------------------------------------------------------------------ *)
(* Retry policy                                                        *)
(* ------------------------------------------------------------------ *)

module Stub_engine = struct
  type ctx = unit
  type scratch = unit

  let stats = Stats.create ()
  let create_scratch () = ()
  let clear_scratch () = ()
  let start () _ ~owner:_ ~rec_state:_ = ()
  let commit () = ()
  let abort () = ()
  let forget () = ()
  let rec_state () = None
  let tx_id () = 0
  let enter () _ ~tx:_ = ()
  let validate_child () = ()
  let merge ~parent:_ ~parent_tx:_ () = ()
end

module Stub = Attempt.Make (Stub_engine)

(* The stub's statistics, zeroed for a fresh case. *)
let fresh_stats () =
  Stats.reset Stub_engine.stats;
  Stub_engine.stats

(* One top-level transaction of the stub; [f] receives the attempt number
   (0 on the first try). *)
let run f =
  let n = ref (-1) in
  Stub.atomic Stm_intf.Regular (fun () ->
      incr n;
      f ~attempt:!n)

let with_retry_cap cap f =
  let saved = !Runtime.retry_cap in
  Runtime.retry_cap := cap;
  Fun.protect ~finally:(fun () -> Runtime.retry_cap := saved) f

let with_starvation_mode mode f =
  let saved = !Runtime.starvation_mode in
  Runtime.starvation_mode := mode;
  Fun.protect ~finally:(fun () -> Runtime.starvation_mode := saved) f

let with_timeout_ns ns f =
  let saved = !Runtime.tx_timeout_ns in
  Runtime.tx_timeout_ns := Some ns;
  Fun.protect ~finally:(fun () -> Runtime.tx_timeout_ns := saved) f

let count_yields f =
  let yields = ref 0 in
  let saved = !Runtime.yield_hook in
  Runtime.yield_hook := (fun _ -> incr yields);
  Fun.protect
    ~finally:(fun () -> Runtime.yield_hook := saved)
    (fun () ->
      f ();
      !yields)

let test_retry_first_attempt_commits () =
  simulated (fun () ->
      let stats = fresh_stats () in
      let seen_attempt = ref (-1) in
      let result =
        run (fun ~attempt ->
            seen_attempt := attempt;
            "done")
      in
      Alcotest.(check string) "result returned" "done" result;
      Alcotest.(check int) "first attempt is number 0" 0 !seen_attempt;
      let s = Stats.snapshot stats in
      Alcotest.(check (pair int int)) "one commit, no aborts" (1, 0)
        (s.Stats.commits, s.Stats.aborts))

let test_retry_counts_aborts () =
  simulated (fun () ->
      let stats = fresh_stats () in
      let attempts = ref [] in
      let result =
        run (fun ~attempt ->
            attempts := attempt :: !attempts;
            if attempt < 3 then Control.abort_tx Control.Lock_contention;
            attempt)
      in
      Alcotest.(check int) "returns on the fourth attempt" 3 result;
      Alcotest.(check (list int)) "attempt numbers increment" [ 0; 1; 2; 3 ]
        (List.rev !attempts);
      let s = Stats.snapshot stats in
      Alcotest.(check int) "three aborts recorded" 3 s.Stats.aborts;
      Alcotest.(check int) "one commit recorded" 1 s.Stats.commits;
      Alcotest.(check (option int)) "aborts attributed to the reason"
        (Some 3)
        (List.assoc_opt Control.Lock_contention s.Stats.by_reason))

let test_retry_cap_starvation () =
  simulated (fun () ->
      with_starvation_mode `Raise (fun () ->
          with_retry_cap 7 (fun () ->
              let stats = fresh_stats () in
              let calls = ref 0 in
              Alcotest.check_raises "starvation after the cap"
                (Control.Starvation "transaction exceeded retry cap")
                (fun () ->
                  ignore
                    (run (fun ~attempt:_ ->
                         incr calls;
                         Control.abort_tx Control.Validation_failed)));
              (* attempts 0..7 ran, the cap refused an eighth retry *)
              Alcotest.(check int) "cap+1 attempts executed" 8 !calls;
              let s = Stats.snapshot stats in
              Alcotest.(check int) "every attempt recorded as abort" 8
                s.Stats.aborts;
              Alcotest.(check int) "starvation counted" 1 s.Stats.starvations;
              Alcotest.(check int) "nothing committed" 0 s.Stats.commits)))

(* Under the default [`Fallback] mode the same always-conflicting workload
   must NOT raise: the loop escalates to the serial-irrevocable mode, where
   the attempt (here: one that only succeeds once serial) commits. *)
let test_retry_cap_fallback_commits () =
  simulated (fun () ->
      with_starvation_mode `Fallback (fun () ->
          with_retry_cap 3 (fun () ->
              let stats = fresh_stats () in
              let calls = ref 0 in
              let result =
                run (fun ~attempt:_ ->
                    incr calls;
                    if Runtime.Serial.mine () then "serial-commit"
                    else Control.abort_tx Control.Validation_failed)
              in
              Alcotest.(check string) "committed via the fallback"
                "serial-commit" result;
              (* attempts 0..3 aborted, the escalated attempt 4 committed *)
              Alcotest.(check int) "cap+2 attempts executed" 5 !calls;
              Alcotest.(check bool) "token released" false
                (Runtime.Serial.active ());
              let s = Stats.snapshot stats in
              Alcotest.(check int) "optimistic aborts recorded" 4
                s.Stats.aborts;
              Alcotest.(check int) "one commit" 1 s.Stats.commits;
              Alcotest.(check int) "starvation counted" 1 s.Stats.starvations;
              Alcotest.(check int) "fallback entry counted" 1
                s.Stats.fallbacks)))

(* The escalating attempt must not sit out a contention-manager wait: with
   cap aborted attempts there are exactly cap backoff waits (one scheduling
   point each under the simulated flag), none between the last optimistic
   abort and the escalation. *)
let test_no_backoff_before_escalation () =
  simulated (fun () ->
      with_starvation_mode `Fallback (fun () ->
          with_retry_cap 2 (fun () ->
              let yields =
                count_yields (fun () ->
                    ignore
                      (run (fun ~attempt:_ ->
                           if Runtime.Serial.mine () then ()
                           else Control.abort_tx Control.Lock_contention)))
              in
              Alcotest.(check int) "exactly cap waits, none when escalating"
                2 yields)))

(* With a deadline configured, a workload that cannot commit stops with
   Timeout instead of looping in the serial mode forever. *)
let test_timeout_expires () =
  simulated (fun () ->
      with_starvation_mode `Fallback (fun () ->
          with_retry_cap 1 (fun () ->
              with_timeout_ns 200_000 (fun () ->
                  let stats = fresh_stats () in
                  Alcotest.check_raises "deadline surfaces as Timeout"
                    (Control.Timeout "transaction deadline expired")
                    (fun () ->
                      ignore
                        (run (fun ~attempt:_ ->
                             Control.abort_tx Control.Validation_failed)));
                  Alcotest.(check bool) "token released after timeout" false
                    (Runtime.Serial.active ());
                  let s = Stats.snapshot stats in
                  Alcotest.(check int) "timeout counted" 1 s.Stats.timeouts;
                  Alcotest.(check int) "nothing committed" 0 s.Stats.commits))))

(* The deadline counts from the first attempt, not from the current one:
   every attempt stays well inside the budget, yet the run as a whole
   outlives it long before the cap is reached.  A birth stamp refreshed
   per attempt would never expire and end in Starvation instead. *)
let test_deadline_from_first_attempt () =
  let budget_ns = 20_000_000 in
  simulated (fun () ->
      with_starvation_mode `Raise (fun () ->
          with_retry_cap 10_000 (fun () ->
              with_timeout_ns budget_ns (fun () ->
                  let stats = fresh_stats () in
                  let calls = ref 0 in
                  Alcotest.check_raises "Timeout, not Starvation"
                    (Control.Timeout "transaction deadline expired")
                    (fun () ->
                      ignore
                        (run (fun ~attempt:_ ->
                             incr calls;
                             let t0 = Mclock.now_ns () in
                             while Mclock.elapsed_ns t0 < budget_ns / 10 do
                               Domain.cpu_relax ()
                             done;
                             Control.abort_tx Control.Validation_failed)));
                  Alcotest.(check bool) "several attempts fit in the budget"
                    true (!calls > 1);
                  let s = Stats.snapshot stats in
                  Alcotest.(check int) "timeout counted" 1 s.Stats.timeouts;
                  Alcotest.(check int) "no starvation" 0 s.Stats.starvations))))

(* A transaction that commits first time creates no backoff state, so it
   draws no transaction id for a seed; the first abort draws exactly one.
   Every attempt draws its owner id: count the ids drawn beyond those. *)
let test_lazy_backoff_state () =
  simulated (fun () ->
      let attempts = ref 0 in
      let ids_drawn f =
        attempts := 0;
        let before = Runtime.fresh_tx_id () in
        f ();
        Runtime.fresh_tx_id () - before - 1 - !attempts
      in
      Alcotest.(check int) "first-try commit draws no id" 0
        (ids_drawn (fun () -> run (fun ~attempt:_ -> incr attempts)));
      Alcotest.(check int) "three aborts draw one id" 1
        (ids_drawn (fun () ->
             run (fun ~attempt ->
                 incr attempts;
                 if attempt < 3 then
                   Control.abort_tx Control.Lock_contention))))

(* ------------------------------------------------------------------ *)
(* Mclock                                                              *)
(* ------------------------------------------------------------------ *)

let test_mclock_monotone () =
  let prev = ref (Mclock.now_ns ()) in
  for i = 1 to 10_000 do
    let t = Mclock.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "clock went backwards at sample %d" i;
    prev := t
  done

let test_mclock_elapsed () =
  let t0 = Mclock.now_ns () in
  (* Burn a little time so elapsed is strictly positive even on a coarse
     clock source. *)
  let x = ref 0 in
  for i = 1 to 1_000_000 do
    x := !x + i
  done;
  Sys.opaque_identity !x |> ignore;
  let e = Mclock.elapsed_ns t0 in
  Alcotest.(check bool) "elapsed_ns is positive" true (e > 0);
  let e' = Mclock.elapsed_ns t0 in
  Alcotest.(check bool) "elapsed_ns grows" true (e' >= e)

let test_retry_user_exception_passes_through () =
  simulated (fun () ->
      let stats = fresh_stats () in
      Alcotest.check_raises "user exceptions are not retried"
        (Failure "boom") (fun () ->
          ignore (run (fun ~attempt:_ -> failwith "boom")));
      let s = Stats.snapshot stats in
      Alcotest.(check (pair int int)) "neither commit nor abort recorded"
        (0, 0)
        (s.Stats.commits, s.Stats.aborts))

let suite =
  [ Alcotest.test_case "backoff: doubling bounded by max" `Quick
      test_backoff_growth_bounded;
    QCheck_alcotest.to_alcotest backoff_monotone_prop;
    Alcotest.test_case "backoff: simulated mode only yields" `Quick
      test_backoff_simulated_yields;
    Alcotest.test_case "retry: first attempt commits" `Quick
      test_retry_first_attempt_commits;
    Alcotest.test_case "retry: aborts counted then commits" `Quick
      test_retry_counts_aborts;
    Alcotest.test_case "retry: cap raises Starvation under `Raise" `Quick
      test_retry_cap_starvation;
    Alcotest.test_case "retry: cap escalates to serial fallback" `Quick
      test_retry_cap_fallback_commits;
    Alcotest.test_case "retry: no backoff before escalation" `Quick
      test_no_backoff_before_escalation;
    Alcotest.test_case "retry: deadline surfaces as Timeout" `Quick
      test_timeout_expires;
    Alcotest.test_case "retry: deadline counts from the first attempt" `Quick
      test_deadline_from_first_attempt;
    Alcotest.test_case "retry: first-try commit creates no backoff state"
      `Quick test_lazy_backoff_state;
    Alcotest.test_case "mclock: monotone" `Quick test_mclock_monotone;
    Alcotest.test_case "mclock: elapsed grows" `Quick test_mclock_elapsed;
    Alcotest.test_case "retry: user exceptions pass through" `Quick
      test_retry_user_exception_passes_through ]
