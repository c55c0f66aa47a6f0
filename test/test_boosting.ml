[@@@txlint.allow "lock-release"
    "tests exercise the lock primitives directly and assert the release \
     behaviour themselves"]

(* Transactional boosting with outherited abstract locks (Section VIII):
   basic semantics, undo on abort, composition atomicity, deadlock
   recovery, and the same mutual insertIfAbsent invariant the STM tests
   use — boosting composes because its abstract locks are outherited. *)

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

let test_basic () =
  let s = BSet.create () in
  Alcotest.(check bool) "add" true (BSet.add s 1);
  Alcotest.(check bool) "dup" false (BSet.add s 1);
  Alcotest.(check bool) "contains" true (BSet.contains s 1);
  Alcotest.(check bool) "remove" true (BSet.remove s 1);
  Alcotest.(check bool) "gone" false (BSet.contains s 1)

let test_undo_on_abort () =
  let s = BSet.create () in
  ignore (BSet.add s 1);
  (try
     Boosting.atomic (fun _ ->
         ignore (BSet.add s 2);
         ignore (BSet.remove s 1);
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "aborted add undone" false (BSet.contains s 2);
  Alcotest.(check bool) "aborted remove undone" true (BSet.contains s 1);
  Alcotest.(check bool) "no transaction left" false (Boosting.in_transaction ())

let test_locks_released_after_commit () =
  let s = BSet.create () in
  ignore (BSet.add_all s [ 1; 2; 3 ]);
  (* If locks leaked, this second operation would starve. *)
  ignore (BSet.remove_all s [ 1; 2; 3 ]);
  Alcotest.(check bool) "usable after composition" true (BSet.add s 1)

let test_composition_atomic () =
  (* Pairs inserted via add_all: observers using a composed transaction
     (contains both) never see exactly one element of a pair. *)
  let s = BSet.create () in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        for i = 0 to 149 do
          ignore (BSet.add_all s [ 2 * i; (2 * i) + 1 ]);
          ignore (BSet.remove_all s [ 2 * i; (2 * i) + 1 ])
        done;
        Atomic.set stop true)
  in
  let reader =
    Domain.spawn (fun () ->
        let rng = ref 1 in
        while not (Atomic.get stop) do
          rng := (!rng * 48271) mod 2147483647;
          let i = !rng mod 150 in
          let a, b =
            Boosting.atomic (fun _ ->
                (BSet.contains s (2 * i), BSet.contains s ((2 * i) + 1)))
          in
          if a <> b then ignore (Atomic.fetch_and_add bad 1)
        done)
  in
  Domain.join writer;
  Domain.join reader;
  Alcotest.(check int) "pairs always observed whole" 0 (Atomic.get bad)

let test_deadlock_recovery () =
  (* Two domains move elements in opposite directions: lock acquisition
     orders collide, the patience bound turns deadlocks into aborts, and
     both finish. *)
  let a = BSet.create () and b = BSet.create () in
  for i = 0 to 15 do
    ignore (BSet.add a i)
  done;
  let mover src dst seed () =
    let st = ref (seed + 1) in
    for _ = 1 to 100 do
      st := (!st * 48271) mod 2147483647;
      ignore (BSet.move ~src ~dst (!st mod 16))
    done
  in
  let ds =
    [ Domain.spawn (mover a b 1); Domain.spawn (mover b a 2);
      Domain.spawn (mover a b 3); Domain.spawn (mover b a 4) ]
  in
  List.iter Domain.join ds;
  let count s = List.length (List.filter (BSet.contains s) (List.init 16 Fun.id)) in
  Alcotest.(check int) "tokens conserved through deadlock recovery" 16
    (count a + count b)

let test_mutual_insert_if_absent () =
  (* The Fig. 1 invariant, for boosting: outherited abstract locks keep the
     composition atomic. *)
  for _ = 1 to 50 do
    let s = BSet.create () in
    let d1 =
      Domain.spawn (fun () -> ignore (BSet.insert_if_absent s ~ins:3 ~guard:7))
    in
    let d2 =
      Domain.spawn (fun () -> ignore (BSet.insert_if_absent s ~ins:7 ~guard:3))
    in
    Domain.join d1;
    Domain.join d2;
    if BSet.contains s 3 && BSet.contains s 7 then
      Alcotest.fail "boosted insertIfAbsent violated mutual exclusion"
  done

let test_abstract_lock_unit () =
  let open Stm_core in
  let l = Boosting.abstract_lock () in
  Boosting.atomic (fun tx ->
      Boosting.acquire tx l;
      let owner = Vlock.holder l in
      Alcotest.(check bool) "held" true
        (owner >= 0 && Vlock.locked (Vlock.stamp l));
      (* Reentrant for the owner, in a nested child too: the stripe is
         already this transaction's, so neither blocks nor aborts. *)
      Boosting.acquire tx l;
      Boosting.atomic (fun child -> Boosting.acquire child l);
      Alcotest.(check int) "same holder" owner (Vlock.holder l);
      Alcotest.(check bool) "other owner blocked" false
        (Vlock.try_lock l ~owner:(owner + 1)));
  Alcotest.(check int) "released at commit" (-1) (Vlock.holder l);
  let s = Vlock.stamp l in
  Alcotest.(check bool) "unlocked" false (Vlock.locked s);
  Alcotest.(check int) "version restored" 0 (Vlock.version_of s);
  Alcotest.(check bool) "reacquirable" true (Vlock.try_lock l ~owner:2);
  Vlock.unlock_restore l

let test_recorded_outheritance () =
  (* Section VIII's claim, closed end to end: a recorded boosted
     composition satisfies Definition 4.1 — the children's abstract locks
     (their protection elements) are released only after the root commit,
     hence after the supremum. *)
  let open Stm_core in
  let events, _ =
    Recorder.record (fun () ->
        Schedsim.Sched.run
          [ (fun () ->
              let s = BSet.create () in
              ignore (BSet.add_all s [ 1; 2; 3 ])) ])
  in
  let h = Histories.Convert.to_history events in
  Alcotest.(check bool) "well-formed" true
    (Result.is_ok (Histories.History.well_formed h));
  let committed = Histories.History.committed h in
  (* add_all + three child adds: root commits last. *)
  let children =
    match List.rev committed with _root :: rest -> List.rev rest | [] -> []
  in
  Alcotest.(check int) "three children" 3 (List.length children);
  let c = Histories.Composition.make_exn h children in
  List.iter
    (fun tx ->
      Alcotest.(check bool)
        (Printf.sprintf "Pmin(t%d) is non-trivial" tx)
        true
        (Histories.History.pmin h tx <> []))
    children;
  Alcotest.(check bool) "boosted composition satisfies outheritance" true
    (Histories.Outheritance.satisfies h c)

let suite =
  [ Alcotest.test_case "abstract lock unit" `Quick test_abstract_lock_unit;
    Alcotest.test_case "recorded outheritance (Section VIII)" `Quick
      test_recorded_outheritance;
    Alcotest.test_case "basics" `Quick test_basic;
    Alcotest.test_case "undo on abort" `Quick test_undo_on_abort;
    Alcotest.test_case "locks released after commit" `Quick
      test_locks_released_after_commit;
    Alcotest.test_case "composition atomic" `Slow test_composition_atomic;
    Alcotest.test_case "deadlock recovery" `Slow test_deadlock_recovery;
    Alcotest.test_case "mutual insertIfAbsent" `Slow
      test_mutual_insert_if_absent ]
