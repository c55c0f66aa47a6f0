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
     irrevocable attempt: [Retry_loop.escalate]'s [Fun.protect] must
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
module View_exn = Make (Viewstm.V)

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

let suite = Oe_exn.cases @ Tl2_exn.cases @ View_exn.cases @ Boost_exn.cases
