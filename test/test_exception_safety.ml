[@@@txlint.allow "stm-escape"
    "tests drive the escape hatches directly: preloads and post-run \
     state checks are quiescent"]

[@@@txlint.allow "crash-swallowed"
    "the test is the crash orchestrator: it injects the fault and \
     asserts on the aftermath"]

(* Exception safety of the four engines: a user (or injected) exception
   escaping at the worst possible moment — mid-commit, while write locks
   are held — must leave no lock behind, keep the serial token free, and
   let the very next transaction on the same data commit.

   The armed-fault point arithmetic mirrors the chaos domain-kill killer:
   a transaction that reads and rewrites two fresh cells costs read,
   write, read, write (four points), one commit point, then one lock
   point per write-set entry, in all three lazy-locking tvar engines.
   [arm_raise_after ~points:7] therefore raises at the second lock point,
   with exactly one write lock held.  If the engine leaked that lock, the
   follow-up transaction would wedge — the transaction deadline turns
   that into a loud [Timeout] failure rather than a hang. *)

open Stm_core

let with_deadline f =
  let saved = !Runtime.tx_timeout_ns in
  Runtime.tx_timeout_ns := Some 2_000_000_000;
  Fun.protect
    ~finally:(fun () ->
      Runtime.tx_timeout_ns := saved;
      Faults.disarm ();
      Faults.disable ())
    f

exception Foo

(* Transactions whose recorded [Begin] never got a [Commit] or [Abort]. *)
let unclosed events =
  let open_txs = Hashtbl.create 8 in
  List.iter
    (function
      | Recorder.Begin { tx; _ } -> Hashtbl.replace open_txs tx ()
      | Recorder.Commit { tx; _ } | Recorder.Abort { tx; _ } ->
        Hashtbl.remove open_txs tx
      | _ -> ())
    events;
  Hashtbl.length open_txs

module Make (S : Stm_intf.S) = struct
  let test_raise_mid_commit () =
    with_deadline (fun () ->
        let tvs = Array.init 2 (fun _ -> S.tvar 10) in
        Faults.arm_raise_after ~points:7;
        (try
           S.atomic (fun ctx ->
               for i = 0 to 1 do
                 S.write ctx tvs.(i) (S.read ctx tvs.(i) + 1)
               done);
           Alcotest.fail "expected Injected_failure to escape"
         with Faults.Injected_failure -> ());
        (* Nothing installed: the raise fired before the write set went in. *)
        Alcotest.(check int) "values untouched" 10 (S.peek tvs.(0));
        Alcotest.(check int) "values untouched" 10 (S.peek tvs.(1));
        Alcotest.(check bool) "serial token free" false
          (Runtime.Serial.active ());
        (* The locks were released: the same cells commit again at once. *)
        let sum =
          S.atomic (fun ctx ->
              S.write ctx tvs.(0) (S.read ctx tvs.(0) + 1);
              S.read ctx tvs.(0) + S.read ctx tvs.(1))
        in
        Alcotest.(check int) "next transaction commits" 21 sum;
        Alcotest.(check int) "and installed" 11 (S.peek tvs.(0)))

  let test_user_exception_in_body () =
    with_deadline (fun () ->
        let tv = S.tvar 1 in
        (try
           S.atomic (fun ctx ->
               S.write ctx tv 99;
               (failwith "body blew up" : unit));
           Alcotest.fail "expected Failure to escape"
         with Failure m ->
           Alcotest.(check string) "the user's exception, verbatim"
             "body blew up" m);
        Alcotest.(check int) "write rolled back" 1 (S.peek tv);
        Alcotest.(check bool) "serial token free" false
          (Runtime.Serial.active ());
        Alcotest.(check int) "next transaction commits" 2
          (S.atomic (fun ctx ->
               S.write ctx tv (S.read ctx tv + 1);
               S.read ctx tv)))

  (* Force escalation into the serial fallback, then blow up inside the
     irrevocable attempt: [Attempt]'s escalation [Fun.protect] must
     release the token on the way out. *)
  let test_serial_fallback_releases_token () =
    with_deadline (fun () ->
        let saved_cap = !Runtime.retry_cap in
        let saved_mode = !Runtime.starvation_mode in
        Runtime.retry_cap := 2;
        Runtime.starvation_mode := `Fallback;
        Fun.protect
          ~finally:(fun () ->
            Runtime.retry_cap := saved_cap;
            Runtime.starvation_mode := saved_mode)
          (fun () ->
            let tv = S.tvar 0 in
            (try
               S.atomic (fun ctx ->
                   ignore (S.read ctx tv);
                   if Runtime.Serial.mine () then failwith "serial boom"
                   else (Control.abort_tx Control.Injected : unit));
               Alcotest.fail "expected Failure to escape"
             with Failure m ->
               Alcotest.(check string) "raised under the token" "serial boom"
                 m);
            Alcotest.(check bool) "token released on the exception path"
              false (Runtime.Serial.active ());
            Alcotest.(check int) "next transaction commits" 1
              (S.atomic (fun ctx ->
                   S.write ctx tv (S.read ctx tv + 1);
                   S.read ctx tv))))

  (* A user exception leaving a child that the parent catches: flat
     nesting keeps the child's write, the child is recorded as committed,
     and the parent commits normally. *)
  let test_nested_user_exception_caught () =
    with_deadline (fun () ->
        let a = S.tvar 0 in
        let events, v =
          Recorder.record (fun () ->
              S.atomic (fun c ->
                  (try
                     S.atomic (fun c' ->
                         S.write c' a 1;
                         raise Foo)
                   with Foo -> ());
                  S.read c a))
        in
        Alcotest.(check int) "the parent sees the child's write" 1 v;
        Alcotest.(check int) "and commits it" 1 (S.peek a);
        Alcotest.(check int) "every recorded begin is closed" 0
          (unclosed events);
        Alcotest.(check bool) "no transaction left" false
          (S.in_transaction ()))

  let cases =
    [ Alcotest.test_case
        (S.name ^ ": injected raise mid-commit leaves locks free") `Quick
        test_raise_mid_commit;
      Alcotest.test_case
        (S.name ^ ": user exception caught around a nested atomic") `Quick
        test_nested_user_exception_caught;
      Alcotest.test_case (S.name ^ ": user exception in body rolls back")
        `Quick test_user_exception_in_body;
      Alcotest.test_case
        (S.name ^ ": serial fallback releases token on raise") `Quick
        test_serial_fallback_releases_token ]
end

module Oe_exn = Make (Oestm.Oe)
module Tl2_exn = Make (Classic_stm.Tl2)
module View_exn = Make (Oestm.View)

(* Boosting is eager and lock-based, so the same guarantees read
   differently: an exception rolls back via the undo log and releases the
   abstract locks.  The armed raise fires at the second fresh stripe
   acquisition (one schedule point per fresh acquire, fired before the
   attempt), i.e. holding one stripe lock with one eager insert already
   applied — both must be undone. *)
module Boost_exn = struct
  module Base = Seqds.Hash (Seqds.Int_key)

  module BSet =
    Boosting.Boost
      (struct
        type elt = int
        type t = Base.t

        let create () = Base.create ()
        let contains = Base.contains
        let add = Base.add
        let remove = Base.remove
      end)
      (struct
        let hash = Seqds.Int_key.hash
      end)

  let stripes = 8
  let stripe_of k = Seqds.Int_key.hash k mod stripes

  (* Two keys on distinct stripes, so the second [add] takes a fresh
     abstract lock (the reentrant fast path has no schedule point). *)
  let ka = 0

  let kb =
    let k = ref 1 in
    while stripe_of !k = stripe_of ka do incr k done;
    !k

  let test_raise_mid_pair () =
    with_deadline (fun () ->
        let s = BSet.create ~stripes () in
        Faults.arm_raise_after ~points:2;
        (try
           ignore (BSet.add_all s [ ka; kb ]);
           Alcotest.fail "expected Injected_failure to escape"
         with Faults.Injected_failure -> ());
        Faults.disarm ();
        (* The eager first insert was undone and its stripe released. *)
        Alcotest.(check bool) "first insert rolled back" false
          (BSet.contains s ka);
        Alcotest.(check bool) "serial token free" false
          (Runtime.Serial.active ());
        Alcotest.(check bool) "pair inserts cleanly afterwards" true
          (BSet.add_all s [ ka; kb ]);
        Alcotest.(check bool) "both present" true
          (BSet.contains s ka && BSet.contains s kb))

  let test_user_exception_in_body () =
    with_deadline (fun () ->
        let s = BSet.create ~stripes () in
        (try
           Boosting.atomic (fun _ ->
               ignore (BSet.add s ka);
               (failwith "body blew up" : unit));
           Alcotest.fail "expected Failure to escape"
         with Failure m ->
           Alcotest.(check string) "the user's exception, verbatim"
             "body blew up" m);
        Alcotest.(check bool) "insert rolled back" false (BSet.contains s ka);
        Alcotest.(check bool) "stripe released: add commits" true
          (BSet.add s ka))

  let test_nested_user_exception_caught () =
    with_deadline (fun () ->
        let s = BSet.create ~stripes () in
        let events, present =
          Recorder.record (fun () ->
              Boosting.atomic (fun _ ->
                  (try
                     Boosting.atomic (fun _ ->
                         ignore (BSet.add s ka);
                         raise Foo)
                   with Foo -> ());
                  BSet.contains s ka))
        in
        Alcotest.(check bool) "the child's insert is kept" true present;
        Alcotest.(check int) "every recorded begin is closed" 0
          (unclosed events);
        Alcotest.(check bool) "no transaction left" false
          (Boosting.in_transaction ()))

  let cases =
    [ Alcotest.test_case
        "boosting: injected raise mid-pair undoes and releases" `Quick
        test_raise_mid_pair;
      Alcotest.test_case "boosting: user exception caught around a nested \
        atomic" `Quick test_nested_user_exception_caught;
      Alcotest.test_case "boosting: user exception in body rolls back"
        `Quick test_user_exception_in_body ]
end

(* The top-level bracket's cleanup contract (DESIGN.md 5k), over the four
   ways an attempt ends: commit, an abort then a commit on retry, a user
   exception, and a simulated crash.  Each run has recovery on, fault
   injection on at rate 0 and, for the tvar engines, a WAL open.  After
   each outcome: no transaction is current, the fault window is closed (a
   schedule point outside any attempt injects nothing even at abort rate
   1.0), no registry slot is live (and the crashed one is dead), and the
   WAL holds one record per commit and none otherwise. *)
module Bracket = struct
  type outcome = Commit | Abort_then_commit | User_exn | Crash

  let outcome_name = function
    | Commit -> "commit"
    | Abort_then_commit -> "abort then commit"
    | User_exn -> "user exception"
    | Crash -> "crash"

  (* The body of every run: [touch] does the engine's work, then the
     outcome is forced.  A crash is armed at the first schedule point. *)
  let body outcome ~tries touch =
    incr tries;
    touch ();
    match outcome with
    | Abort_then_commit when !tries = 1 -> Control.abort_tx Control.Explicit
    | User_exn -> raise Foo
    | Commit | Abort_then_commit | Crash -> ()

  module type TVAR_ENGINE = Stm_intf.S with type 'a tvar = 'a Tvar.t

  let tvar_engine (module S : TVAR_ENGINE) =
    let run outcome =
      let p = Persist.Ptvar.make ~id:0 ~codec:Persist.Codec.int 0 in
      let tv = Persist.Ptvar.tvar p in
      let tries = ref 0 in
      S.atomic (fun ctx ->
          body outcome ~tries (fun () -> S.write ctx tv (S.read ctx tv + 1)))
    in
    (S.name, S.in_transaction, run, true)

  let boost_engine =
    let run outcome =
      let s = Boost_exn.BSet.create ~stripes:Boost_exn.stripes () in
      let tries = ref 0 in
      Boosting.atomic (fun _ ->
          body outcome ~tries (fun () ->
              ignore (Boost_exn.BSet.add s Boost_exn.ka)))
    in
    ("boosting", Boosting.in_transaction, run, false)

  let engines =
    [ tvar_engine (module Oestm.Oe); tvar_engine (module Classic_stm.Tl2);
      boost_engine ]

  let check_one (name, in_transaction, run, durable) outcome =
    let label what =
      Printf.sprintf "%s, %s: %s" name (outcome_name outcome) what
    in
    let path = Filename.temp_file "bracket" ".wal" in
    let recovery = Recovery.enabled () in
    Persist.reset_for_testing ();
    Faults.reset_counts ();
    Faults.enable Faults.default;
    if not recovery then Recovery.enable ();
    Fun.protect
      ~finally:(fun () ->
        Faults.disarm ();
        Faults.disable ();
        if not recovery then Recovery.disable ();
        Persist.reset_for_testing ();
        Sys.remove path)
      (fun () ->
        if durable then Persist.enable ~path ();
        if outcome = Crash then Faults.arm_crash_after ~points:1;
        (match run outcome with
        | () ->
          if outcome = User_exn || outcome = Crash then
            Alcotest.fail (label "the outcome did not escape")
        | exception Foo when outcome = User_exn -> ()
        | exception Control.Crashed when outcome = Crash -> ());
        Faults.disarm ();
        Alcotest.(check bool) (label "no transaction current") false
          (in_transaction ());
        Alcotest.(check int) (label "no live registry slot") 0
          (Registry.live_count ());
        if outcome = Crash then
          Alcotest.(check string) (label "the crashed slot is dead") "dead"
            (Registry.status_name
               (Registry.domain_status ~lease_ns:(Recovery.lease_ns ())
                  ~domain:(Runtime.current_proc ())));
        if durable then
          Alcotest.(check int) (label "WAL records")
            (match outcome with
            | Commit | Abort_then_commit -> 1
            | User_exn | Crash -> 0)
            (Persist.appended_records ());
        Faults.enable { Faults.default with spurious_abort = 1.0 };
        Runtime.schedule_point ();
        Alcotest.(check int) (label "fault window closed") 0
          (Faults.count Faults.Spurious_abort))

  let outcomes = [ Commit; Abort_then_commit; User_exn; Crash ]
  let test () = List.iter (fun e -> List.iter (check_one e) outcomes) engines

  let cases =
    [ Alcotest.test_case "bracket: every way an attempt ends cleans up"
        `Quick test ]
end

let suite =
  Oe_exn.cases @ Tl2_exn.cases @ View_exn.cases @ Boost_exn.cases
  @ Bracket.cases
