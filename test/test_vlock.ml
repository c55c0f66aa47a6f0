[@@@txlint.allow "lock-release"
    "tests exercise the lock primitives directly and assert the release \
     behaviour themselves"]

open Stm_core

let test_fresh_unlocked () =
  let l = Vlock.create () in
  let s = Vlock.stamp l in
  Alcotest.(check bool) "fresh lock is unlocked" false (Vlock.locked s);
  Alcotest.(check int) "fresh lock is at version 0" 0 (Vlock.version_of s)

(* Lock [l] and release it at [version]: moves a lock to a given
   version. *)
let set_version l ~version =
  let saved = Vlock.try_lock_save l ~owner:0 in
  assert (saved >= 0 && Vlock.unlock_to_from l ~saved ~version)

let test_lock_unlock_to () =
  let l = Vlock.create () in
  let saved = Vlock.try_lock_save l ~owner:7 in
  Alcotest.(check bool) "try_lock succeeds" true (saved >= 0);
  let s = Vlock.stamp l in
  Alcotest.(check bool) "locked after try_lock" true (Vlock.locked s);
  Alcotest.(check int) "locked stamp keeps version" 0 (Vlock.version_of s);
  Alcotest.(check int) "owner recorded" 7 (Vlock.holder l);
  Alcotest.(check bool) "locked_by owner" true (Vlock.locked_by l ~owner:7);
  Alcotest.(check bool) "not locked_by other" false (Vlock.locked_by l ~owner:8);
  Alcotest.(check bool) "second try_lock fails" false (Vlock.try_lock l ~owner:9);
  Alcotest.(check bool) "unlock_to_from releases" true
    (Vlock.unlock_to_from l ~saved ~version:42);
  let s = Vlock.stamp l in
  Alcotest.(check bool) "unlocked after unlock_to_from" false (Vlock.locked s);
  Alcotest.(check int) "new version published" 42 (Vlock.version_of s)

(* Every acquisition claims the lock, recovery on or off: the holder reads
   the locker while the lock is held and -1 once it is released. *)
let test_holder_without_recovery () =
  Alcotest.(check bool) "recovery is off" false !Runtime.recovery;
  let l = Vlock.create () in
  Alcotest.(check int) "unlocked: no holder" (-1) (Vlock.holder l);
  Alcotest.(check bool) "locked" true (Vlock.try_lock l ~owner:11);
  Alcotest.(check int) "holder names the locker" 11 (Vlock.holder l);
  Vlock.unlock_restore l;
  Alcotest.(check int) "released: no holder" (-1) (Vlock.holder l);
  let saved = Vlock.try_lock_save l ~owner:12 in
  Alcotest.(check int) "holder names the next locker" 12 (Vlock.holder l);
  Alcotest.(check bool) "released at a new version" true
    (Vlock.unlock_to_from l ~saved ~version:3);
  Alcotest.(check int) "released again: no holder" (-1) (Vlock.holder l)

(* A negative owner id is a claim like any other: releasing clears it, so
   the same lock can be taken again at once (the benchmark's lock/unlock
   probe locks as -2). *)
let test_negative_owner_relocks () =
  let l = Vlock.create () in
  for i = 1 to 100 do
    Alcotest.(check bool) (Printf.sprintf "try_lock %d" i) true
      (Vlock.try_lock l ~owner:(-2));
    Vlock.unlock_restore l
  done;
  let s = Vlock.stamp l in
  Alcotest.(check bool) "unlocked" false (Vlock.locked s);
  Alcotest.(check int) "version unchanged" 0 (Vlock.version_of s);
  Alcotest.(check int) "no holder" (-1) (Vlock.holder l)

let test_unlock_restore () =
  let l = Vlock.create () in
  set_version l ~version:5;
  Alcotest.(check bool) "lock at v5" true (Vlock.try_lock l ~owner:1);
  Vlock.unlock_restore l;
  let s = Vlock.stamp l in
  Alcotest.(check bool) "unlocked after restore" false (Vlock.locked s);
  Alcotest.(check int) "version restored" 5 (Vlock.version_of s)

let test_locked_by_after_restore () =
  let l = Vlock.create () in
  ignore (Vlock.try_lock l ~owner:3);
  Vlock.unlock_restore l;
  Alcotest.(check bool) "not locked_by after release" false
    (Vlock.locked_by l ~owner:3)

let prop_stamp_roundtrip =
  QCheck.Test.make ~name:"version survives lock/unlock cycles" ~count:200
    QCheck.(small_nat)
    (fun v ->
      let l = Vlock.create () in
      set_version l ~version:v;
      let ok1 = Vlock.version_of (Vlock.stamp l) = v in
      let saved = Vlock.try_lock_save l ~owner:0 in
      let ok2 = saved >= 0 in
      let ok3 = Vlock.version_of (Vlock.stamp l) = v in
      let ok4 = Vlock.unlock_to_from l ~saved ~version:(v + 1) in
      ok1 && ok2 && ok3 && ok4 && Vlock.version_of (Vlock.stamp l) = v + 1)

let test_parallel_mutual_exclusion () =
  (* Domains contend on one lock; the protected counter must not lose
     increments. *)
  let l = Vlock.create () in
  let counter = ref 0 in
  let per_domain = 1000 in
  let work () =
    for _ = 1 to per_domain do
      let rec acquire () =
        let saved = Vlock.try_lock_save l ~owner:(Domain.self () :> int) in
        if saved < 0 then begin
          Domain.cpu_relax ();
          acquire ()
        end
        else saved
      in
      let saved = acquire () in
      incr counter;
      assert (
        Vlock.unlock_to_from l ~saved ~version:(Vlock.version_of saved + 1))
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" (4 * per_domain) !counter

(* A tvar's whole footprint: the tvar record (4 words with its header), its
   lock record (4), the stamp cell (2) and the claim cell (2).  Per-tvar
   locks are deliberately unpadded (see [Vlock.create]); padding them again
   would show here as ~72 words. *)
let test_tvar_footprint () =
  Alcotest.(check int) "words reachable from one int tvar" 12
    (Obj.reachable_words (Obj.repr (Tvar.make 0)))

let suite =
  [ Alcotest.test_case "fresh unlocked" `Quick test_fresh_unlocked;
    Alcotest.test_case "tvar footprint" `Quick test_tvar_footprint;
    Alcotest.test_case "lock / unlock_to" `Quick test_lock_unlock_to;
    Alcotest.test_case "holder without recovery" `Quick
      test_holder_without_recovery;
    Alcotest.test_case "negative owner relocks" `Quick
      test_negative_owner_relocks;
    Alcotest.test_case "unlock_restore" `Quick test_unlock_restore;
    Alcotest.test_case "locked_by after restore" `Quick
      test_locked_by_after_restore;
    QCheck_alcotest.to_alcotest prop_stamp_roundtrip;
    Alcotest.test_case "parallel mutual exclusion" `Slow
      test_parallel_mutual_exclusion ]
