(* Unit tests for the deterministic fault-injection layer (Faults).

   Everything here runs single-domain: determinism means a fixed seed must
   reproduce the exact same injection decisions, and the gating rules
   (inside an attempt only, never under the serial token) are what keep
   the no-starvation guarantee alive at fault rate 1.0. *)

open Stm_core

(* Faults state is process-global; every test restores a clean slate. *)
let in_sandbox f =
  let finally () =
    Faults.disable ();
    Faults.leave_attempt ();
    Faults.reset_counts ()
  in
  Fun.protect ~finally f

let test_parse_roundtrip () =
  let c =
    { Faults.seed = 42; spurious_abort = 0.25; lock_fail = 0.5;
      validation_fail = 0.125; delay = 0.0625; max_delay_spins = 32;
      fsync_fail = 0.015; short_write = 0.005 }
  in
  Alcotest.(check bool) "parse inverts to_string" true
    (Faults.parse (Faults.to_string c) = c);
  (* Unmentioned fields keep their defaults. *)
  let partial = Faults.parse "seed=9,lock=0.5" in
  Alcotest.(check bool) "partial spec fills in defaults" true
    (partial
    = { Faults.default with Faults.seed = 9; lock_fail = 0.5 });
  Alcotest.(check bool) "empty fields tolerated" true
    (Faults.parse "seed=3,," = { Faults.default with Faults.seed = 3 })

let test_parse_errors () =
  Alcotest.check_raises "unknown key"
    (Invalid_argument "Faults.parse: unknown key frobnicate")
    (fun () -> ignore (Faults.parse "frobnicate=1"));
  Alcotest.check_raises "rate above 1"
    (Invalid_argument "Faults.parse: abort=2 (want 0..1)")
    (fun () -> ignore (Faults.parse "abort=2"));
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Faults.parse: lock=-0.1 (want 0..1)")
    (fun () -> ignore (Faults.parse "lock=-0.1"));
  Alcotest.check_raises "non-integer seed"
    (Invalid_argument "Faults.parse: seed=x (want int)")
    (fun () -> ignore (Faults.parse "seed=x"));
  Alcotest.check_raises "missing ="
    (Invalid_argument "Faults.parse: expected key=value in oops")
    (fun () -> ignore (Faults.parse "oops"))

let test_determinism_per_seed () =
  in_sandbox (fun () ->
      let stream seed =
        Faults.enable { Faults.default with Faults.seed; lock_fail = 0.5 };
        Faults.enter_attempt ();
        List.init 64 (fun _ -> Faults.inject_lock_fail ())
      in
      let a = stream 7 in
      let b = stream 7 in
      Alcotest.(check (list bool)) "same seed, same decisions" a b;
      let c = stream 8 in
      Alcotest.(check bool) "nearby seed, different stream" true (a <> c);
      (* [reseed] restarts the stream without touching the rates. *)
      Faults.reseed 7;
      let d = List.init 64 (fun _ -> Faults.inject_lock_fail ()) in
      Alcotest.(check (list bool)) "reseed replays the stream" a d;
      Alcotest.(check bool) "some lock failures actually fired" true
        (List.mem true a);
      Alcotest.(check bool) "and some acquisitions survived" true
        (List.mem false a))

let test_attempt_gating () =
  in_sandbox (fun () ->
      Faults.enable { Faults.default with Faults.lock_fail = 1.0 };
      Alcotest.(check bool) "outside an attempt: no injection" false
        (Faults.inject_lock_fail ());
      Alcotest.(check int) "and no count" 0 (Faults.count Faults.Lock_fail);
      Faults.enter_attempt ();
      Alcotest.(check bool) "inside an attempt: rate 1.0 always fires" true
        (Faults.inject_lock_fail ());
      Alcotest.(check int) "counted" 1 (Faults.count Faults.Lock_fail);
      Faults.leave_attempt ();
      Alcotest.(check bool) "after leave_attempt: quiet again" false
        (Faults.inject_lock_fail ()))

let test_serial_suppression () =
  in_sandbox (fun () ->
      Faults.enable
        { Faults.default with
          Faults.lock_fail = 1.0; validation_fail = 1.0;
          spurious_abort = 1.0 };
      Faults.enter_attempt ();
      Alcotest.(check bool) "token acquired" true (Runtime.Serial.enter ());
      Fun.protect ~finally:Runtime.Serial.exit (fun () ->
          Alcotest.(check bool) "no lock failure under the serial token"
            false (Faults.inject_lock_fail ());
          Alcotest.(check bool) "no validation failure either" false
            (Faults.inject_validation_fail ());
          (* point () must not raise for the irrevocable holder. *)
          Faults.point ());
      (* Token released: injection resumes. *)
      Alcotest.(check bool) "after release: injection resumes" true
        (Faults.inject_lock_fail ()))

let test_point_aborts_and_counts () =
  in_sandbox (fun () ->
      Faults.enable
        { Faults.default with
          Faults.spurious_abort = 1.0; delay = 1.0; max_delay_spins = 4 };
      Faults.enter_attempt ();
      Alcotest.check_raises "spurious abort surfaces as Abort_tx Injected"
        (Control.Abort_tx Control.Injected) Faults.point;
      Alcotest.(check int) "abort counted" 1
        (Faults.count Faults.Spurious_abort);
      Alcotest.(check int) "delay counted too" 1 (Faults.count Faults.Delay);
      let counts = Faults.counts () in
      Alcotest.(check int) "counts lists every kind"
        (List.length Faults.all_kinds) (List.length counts);
      Faults.reset_counts ();
      Alcotest.(check bool) "reset clears every counter" true
        (List.for_all (fun (_, n) -> n = 0) (Faults.counts ())))

let test_disabled_is_free () =
  in_sandbox (fun () ->
      Alcotest.(check bool) "disabled by default" false (Faults.enabled ());
      Faults.enter_attempt ();
      Alcotest.(check bool) "no lock failures while disabled" false
        (Faults.inject_lock_fail ());
      Faults.point ();  (* must be a no-op, not an abort *)
      Alcotest.check_raises "reseed while disabled rejected"
        (Invalid_argument "Faults.reseed: fault injection is disabled")
        (fun () -> Faults.reseed 3);
      Faults.enable Faults.default;
      Alcotest.(check bool) "enabled" true (Faults.enabled ());
      Alcotest.(check bool) "current returns the config" true
        (Faults.current () = Some Faults.default);
      Faults.disable ();
      Alcotest.(check bool) "current cleared" true (Faults.current () = None))

(* [disable] disarms the caller's one-shot: a later [enable] (all rates
   zero) must not fire a crash armed before the disable. *)
let test_disable_disarms () =
  in_sandbox (fun () ->
      let module S = Oestm.Oe in
      let tv = S.tvar 0 in
      Faults.arm_crash_after ~points:1;
      Faults.disable ();
      Faults.enable Faults.default;
      (match S.atomic (fun ctx -> S.write ctx tv 1) with
      | () -> ()
      | exception Control.Crashed ->
        Alcotest.fail "a one-shot armed before [disable] fired");
      Alcotest.(check int) "no crash recorded" 0
        (Faults.count Faults.Crash_domain))

(* [disable] cancels the one-shots of every domain, not only the
   caller's: a worker's one-shot armed before a [disable] on another
   domain must not fire once the injector is re-enabled. *)
let test_disable_cancels_other_domains () =
  in_sandbox (fun () ->
      let module S = Oestm.Oe in
      let tv = S.tvar 0 in
      let armed = Atomic.make false and go = Atomic.make false in
      let worker =
        Domain.spawn (fun () ->
            Faults.arm_crash_after ~points:1;
            Atomic.set armed true;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            match S.atomic (fun ctx -> S.write ctx tv 1) with
            | () -> ()
            | exception Control.Crashed ->
              Alcotest.fail "a one-shot armed before [disable] fired")
      in
      while not (Atomic.get armed) do
        Domain.cpu_relax ()
      done;
      Faults.disable ();
      Faults.enable Faults.default;
      Atomic.set go true;
      Domain.join worker;
      Alcotest.(check int) "no crash recorded" 0
        (Faults.count Faults.Crash_domain))

let suite =
  [ Alcotest.test_case "spec parse round-trip" `Quick test_parse_roundtrip;
    Alcotest.test_case "spec parse errors" `Quick test_parse_errors;
    Alcotest.test_case "determinism per seed" `Quick
      test_determinism_per_seed;
    Alcotest.test_case "injection only inside attempts" `Quick
      test_attempt_gating;
    Alcotest.test_case "suppressed under the serial token" `Quick
      test_serial_suppression;
    Alcotest.test_case "scheduling-point aborts and counters" `Quick
      test_point_aborts_and_counts;
    Alcotest.test_case "disabled layer is inert" `Quick
      test_disabled_is_free;
    Alcotest.test_case "disable disarms the caller's one-shot" `Quick
      test_disable_disarms;
    Alcotest.test_case "disable cancels other domains' one-shots" `Quick
      test_disable_cancels_other_domains ]
