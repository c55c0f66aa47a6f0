[@@@txlint.allow "stm-escape"
    "tests drive the escape hatches directly: preloads and post-run \
     state checks are quiescent"]

[@@@txlint.allow "lock-release"
    "tests exercise the lock primitives directly and assert the release \
     behaviour themselves"]

open Stm_core

let test_wset_find_typed () =
  let ws = Rwsets.Wset.create () in
  let a = Tvar.make 1 in
  let b = Tvar.make "hello" in
  Alcotest.(check bool) "first write to a" true (Rwsets.Wset.add ws a 10);
  Alcotest.(check bool) "first write to b" true (Rwsets.Wset.add ws b "x");
  Alcotest.(check bool) "second write to a" false (Rwsets.Wset.add ws a 20);
  Alcotest.(check (option int)) "a pending" (Some 20) (Rwsets.Wset.find ws a);
  Alcotest.(check (option string)) "b pending" (Some "x") (Rwsets.Wset.find ws b);
  let c = Tvar.make 0 in
  Alcotest.(check (option int)) "c absent" None (Rwsets.Wset.find ws c);
  Alcotest.(check int) "size counts distinct tvars" 2 (Rwsets.Wset.size ws)

let test_lock_all_and_install () =
  let ws = Rwsets.Wset.create () in
  let a = Tvar.make 1 and b = Tvar.make 2 in
  ignore (Rwsets.Wset.add ws a 10);
  ignore (Rwsets.Wset.add ws b 20);
  Alcotest.(check bool) "lock_all succeeds" true
    (Rwsets.Wset.lock_all ws ~owner:1);
  Rwsets.Wset.install_and_unlock ws ~wv:7;
  Alcotest.(check int) "a installed" 10 (Tvar.peek a);
  Alcotest.(check int) "b installed" 20 (Tvar.peek b);
  Alcotest.(check int) "a version bumped" 7
    (Vlock.version_of (Vlock.stamp a.Tvar.lock));
  Alcotest.(check bool) "a unlocked" false
    (Vlock.locked (Vlock.stamp a.Tvar.lock))

let test_lock_all_fails_and_rolls_back () =
  let ws = Rwsets.Wset.create () in
  let a = Tvar.make 1 and b = Tvar.make 2 in
  ignore (Rwsets.Wset.add ws a 10);
  ignore (Rwsets.Wset.add ws b 20);
  (* Another transaction holds b. *)
  Alcotest.(check bool) "foreign lock" true (Vlock.try_lock b.Tvar.lock ~owner:99);
  Alcotest.(check bool) "lock_all fails" false (Rwsets.Wset.lock_all ws ~owner:1);
  Alcotest.(check bool) "a released again" false
    (Vlock.locked (Vlock.stamp a.Tvar.lock));
  Vlock.unlock_restore b.Tvar.lock;
  Alcotest.(check bool) "lock_all succeeds after release" true
    (Rwsets.Wset.lock_all ws ~owner:1);
  Rwsets.Wset.unlock_all_restore ws;
  Alcotest.(check int) "values untouched on rollback" 1 (Tvar.peek a)

let push_read rs tv =
  let s, _ = Tvar.read_consistent tv in
  Rwsets.Rset.push rs
    { Rwsets.r_lock = tv.Tvar.lock; r_seen = s; r_pe = Tvar.id tv }

let test_rset_validate () =
  let rs = Rwsets.Rset.create () in
  let a = Tvar.make 1 in
  push_read rs a;
  Alcotest.(check bool) "valid while unchanged" true
    (Rwsets.Rset.validate rs ~owner:1);
  (* Simulate a foreign commit. *)
  let saved = Vlock.try_lock_save a.Tvar.lock ~owner:9 in
  Alcotest.(check bool) "invalid while foreign-locked" false
    (Rwsets.Rset.validate rs ~owner:1);
  ignore (Vlock.unlock_to_from a.Tvar.lock ~saved ~version:5);
  Alcotest.(check bool) "invalid after version bump" false
    (Rwsets.Rset.validate rs ~owner:1)

let test_rset_validate_own_lock () =
  let rs = Rwsets.Rset.create () in
  let a = Tvar.make 1 in
  push_read rs a;
  ignore (Vlock.try_lock a.Tvar.lock ~owner:1);
  Alcotest.(check bool) "own write lock over read version is valid" true
    (Rwsets.Rset.validate rs ~owner:1);
  Vlock.unlock_restore a.Tvar.lock

let test_read_consistent_aborts_on_lock () =
  let a = Tvar.make 1 in
  ignore (Vlock.try_lock a.Tvar.lock ~owner:3);
  Alcotest.check_raises "locked read aborts"
    (Control.Abort_tx Control.Read_locked) (fun () ->
      ignore (Tvar.read_consistent a));
  Vlock.unlock_restore a.Tvar.lock

let prop_wset_last_write_wins =
  QCheck.Test.make ~name:"wset: last write wins per tvar" ~count:200
    QCheck.(list (pair (int_bound 9) small_int))
    (fun writes ->
      let tvs = Array.init 10 (fun _ -> Tvar.make (-1)) in
      let ws = Rwsets.Wset.create () in
      List.iter (fun (i, v) -> ignore (Rwsets.Wset.add ws tvs.(i) v)) writes;
      List.for_all
        (fun i ->
          let expected =
            List.fold_left
              (fun acc (j, v) -> if i = j then Some v else acc)
              None writes
          in
          Rwsets.Wset.find ws tvs.(i) = expected)
        (List.init 10 Fun.id))

(* ------------------------------------------------------------------ *)
(* Differential properties: Wset vs a linear assoc model, over random op
   sequences long enough to grow sets well past the paper's write-set
   sizes, with duplicate-id overwrites and post-clear reuse of the same
   (scratch-style) set. *)

type wop = Add of int * int | Clear

let wop_gen =
  QCheck.Gen.(
    frequency
      [ (20, map2 (fun i v -> Add (i, v)) (int_bound 31) small_nat);
        (1, return Clear) ])

let wop_print = function
  | Add (i, v) -> Printf.sprintf "Add(%d,%d)" i v
  | Clear -> "Clear"

let prop_wset_differential =
  QCheck.Test.make ~name:"wset = linear model under random ops"
    ~count:300
    QCheck.(make ~print:(QCheck.Print.list wop_print) (Gen.list_size (Gen.int_range 0 120) wop_gen))
    (fun ops ->
      let tvs = Array.init 32 (fun _ -> Tvar.make (-1)) in
      let ws = Rwsets.Wset.create () in
      let model = ref [] in
      let agree () =
        Array.for_all
          (fun tv ->
            let pe = Tvar.id tv in
            Rwsets.Wset.find ws tv = List.assoc_opt pe !model)
          tvs
        && Rwsets.Wset.size ws = List.length !model
        && Rwsets.Wset.is_empty ws = (!model = [])
      in
      List.for_all
        (fun op ->
          (match op with
          | Add (i, v) ->
            let tv = tvs.(i) in
            let first = Rwsets.Wset.add ws tv v in
            let pe = Tvar.id tv in
            let model_first = not (List.mem_assoc pe !model) in
            model := (pe, v) :: List.remove_assoc pe !model;
            if first <> model_first then QCheck.Test.fail_report "add: first?"
          | Clear ->
            Rwsets.Wset.clear ws;
            model := []);
          agree ())
        ops)

let test_wset_large_lock_order () =
  let n = 100 in
  let tvs = Array.init n (fun i -> Tvar.make i) in
  let ws = Rwsets.Wset.create () in
  (* 100 entries: [lock_all]'s sort runs well past any small-set size,
     and lookups must survive the resulting slot permutation. *)
  Array.iter (fun tv -> ignore (Rwsets.Wset.add ws tv 0)) tvs;
  Alcotest.(check bool) "lock_all succeeds" true
    (Rwsets.Wset.lock_all ws ~owner:1);
  let prev = ref (-1) in
  Rwsets.Wset.iter_pes ws (fun pe ->
      Alcotest.(check bool) "pes strictly ascending" true (pe > !prev);
      prev := pe);
  (* Every entry must still be found after the sort. *)
  Array.iter
    (fun tv ->
      Alcotest.(check (option int))
        "find after sort" (Some 0) (Rwsets.Wset.find ws tv))
    tvs;
  Rwsets.Wset.unlock_all_restore ws

(* ------------------------------------------------------------------ *)
(* Rset vs a full-rescan reference. *)

let prop_rset_reference =
  (* Random sequence of reads interleaved with foreign commits; [validate]
     must agree with a full reference scan after every read. *)
  QCheck.Test.make ~name:"rset: validation = reference" ~count:200
    QCheck.(list (int_bound 9))
    (fun reads ->
      let tvs = Array.init 10 (fun i -> Tvar.make i) in
      let rs = Rwsets.Rset.create () in
      let entries = ref [] in
      List.for_all
        (fun i ->
          let tv = tvs.(i) in
          let s, _ = Tvar.read_consistent tv in
          let e =
            { Rwsets.r_lock = tv.Tvar.lock; r_seen = s; r_pe = Tvar.id tv }
          in
          Rwsets.Rset.push rs e;
          entries := e :: !entries;
          (* Invalidate every third location behind the set's back. *)
          if i mod 3 = 0 then begin
            let saved = Vlock.try_lock_save tv.Tvar.lock ~owner:999 in
            ignore
              (Vlock.unlock_to_from tv.Tvar.lock ~saved
                 ~version:(Vlock.version_of saved + 1))
          end;
          Rwsets.Rset.validate rs ~owner:1
          = List.for_all (Rwsets.rentry_valid ~owner:1) !entries)
        reads)

let test_rset_filter_pe_drops_pe () =
  let tvs = Array.init 6 (fun i -> Tvar.make i) in
  let rs = Rwsets.Rset.create () in
  (* Entries: a b a c (a = tvs.(0)), validate all, then append d a. *)
  push_read rs tvs.(0);
  push_read rs tvs.(1);
  push_read rs tvs.(0);
  push_read rs tvs.(2);
  Alcotest.(check bool) "validate" true (Rwsets.Rset.validate rs ~owner:1);
  push_read rs tvs.(3);
  push_read rs tvs.(0);
  let dropped = Rwsets.Rset.filter_pe rs ~pe:(Tvar.id tvs.(0)) in
  Alcotest.(check int) "dropped all three" 3 dropped;
  Alcotest.(check int) "length shrank" 3 (Rwsets.Rset.length rs);
  Alcotest.(check bool) "survivors still valid" true
    (Rwsets.Rset.validate rs ~owner:1)

let test_rset_clear_for_reuse () =
  let a = Tvar.make 1 in
  let rs = Rwsets.Rset.create () in
  push_read rs a;
  Alcotest.(check bool) "validate" true (Rwsets.Rset.validate rs ~owner:1);
  Rwsets.Rset.clear rs;
  Alcotest.(check int) "length" 0 (Rwsets.Rset.length rs);
  (* Scratch-style reuse after clear behaves like a fresh set. *)
  push_read rs a;
  Alcotest.(check bool) "reuse validates" true (Rwsets.Rset.validate rs ~owner:1)

(* ------------------------------------------------------------------ *)
(* Fault-injection coverage: [validate], the one validation entry point,
   must consult the injector. *)

let test_validation_fault_injection () =
  let saved = Faults.current () in
  Faults.enable { Faults.default with validation_fail = 1.0 };
  Faults.reset_counts ();
  Faults.enter_attempt ();
  Fun.protect
    ~finally:(fun () ->
      Faults.leave_attempt ();
      match saved with Some c -> Faults.enable c | None -> Faults.disable ())
    (fun () ->
      let a = Tvar.make 1 in
      let rs = Rwsets.Rset.create () in
      push_read rs a;
      Alcotest.(check bool) "validate injected" false
        (Rwsets.Rset.validate rs ~owner:1);
      Alcotest.(check bool) "recorded" true
        (Faults.count Faults.Validation_fail >= 1))

(* ------------------------------------------------------------------ *)
(* GC regression: a cleared write set must not retain its tvars.  The
   helper is [@inline never] so no stack slot keeps the temporary alive. *)

let[@inline never] add_temp_tvar ws =
  let tv = Tvar.make 42 in
  ignore (Rwsets.Wset.add ws tv 43);
  let w = Weak.create 1 in
  Weak.set w 0 (Some tv);
  w

let test_wset_clear_releases_tvar () =
  let ws = Rwsets.Wset.create () in
  let w = add_temp_tvar ws in
  Rwsets.Wset.clear ws;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "cleared write set does not pin its tvar" true
    (Weak.get w 0 = None);
  (* The set stays usable after the wipe. *)
  let b = Tvar.make 7 in
  ignore (Rwsets.Wset.add ws b 8);
  Alcotest.(check (option int)) "reuse after clear" (Some 8)
    (Rwsets.Wset.find ws b)

(* ------------------------------------------------------------------ *)
(* DPOR sweep: verdicts must be unchanged by write-set lookups.  One
   process writes 9 private pads, reads them back through the write set
   (every lookup a summary hit and a scan) and increments a shared
   counter; a rival runs a plain increment.  The asymmetry matters: pads are private, so
   the only races are on the counter and the clock, and the rival's
   short transaction keeps the schedule space within DPOR's reach (two
   symmetric big transactions blow it up by orders of magnitude). *)

let private_pads (module S : Stm_intf.S) =
  let final = ref (fun () -> 0) in
  { Schedsim.Explore.procs =
      (fun () ->
        let shared = S.tvar 0 in
        let pads = Array.init 9 (fun _ -> S.tvar 0) in
        final := (fun () -> S.peek shared);
        let big () =
          S.atomic (fun ctx ->
              Array.iteri (fun j tv -> S.write ctx tv (j + 1)) pads;
              (* Read back through the write set: every lookup must hit. *)
              let sum =
                Array.fold_left (fun acc tv -> acc + S.read ctx tv) 0 pads
              in
              assert (sum = 45);
              S.write ctx shared (S.read ctx shared + 1))
        and small () =
          S.atomic (fun ctx -> S.write ctx shared (S.read ctx shared + 1))
        in
        [ big; small ]);
    check =
      (fun outcome ->
        (not (Schedsim.Sched.completed outcome)) || !final () = 2) }

let test_dpor_private_pads () =
  List.iter
    (fun (name, s) ->
      match Schedsim.Explore.explore ~mode:`Dpor ~max_runs:20_000 s with
      | Schedsim.Explore.All_ok _ -> ()
      | Schedsim.Explore.Violation _ ->
        Alcotest.failf "%s: violation with a 9-entry write set" name
      | Schedsim.Explore.Out_of_budget _ ->
        Alcotest.failf "%s: out of budget" name)
    [ ("TL2", private_pads (module Classic_stm.Tl2));
      ("LSA", private_pads (module Classic_stm.Lsa));
      ("OE-STM", private_pads (module Oestm.Oe)) ]

(* Small naive-vs-DPOR differential: the counter scenario exercises
   write-after-read lookups on every increment; both modes must agree. *)
let test_dpor_naive_agree_counter () =
  let counter (module S : Stm_intf.S) =
    let value = ref (fun () -> 0) in
    { Schedsim.Explore.procs =
        (fun () ->
          let c = S.tvar 0 in
          let incr () =
            S.atomic (fun ctx -> S.write ctx c (S.read ctx c + 1))
          in
          value := (fun () -> S.peek c);
          let proc () =
            incr ();
            incr ()
          in
          [ proc; proc ]);
      check =
        (fun outcome ->
          (not (Schedsim.Sched.completed outcome)) || !value () = 4) }
  in
  let verdict = function
    | Schedsim.Explore.All_ok _ -> "All_ok"
    | Schedsim.Explore.Violation _ -> "Violation"
    | Schedsim.Explore.Out_of_budget _ -> "Out_of_budget"
  in
  let s = counter (module Classic_stm.Tl2) in
  let naive = Schedsim.Explore.explore ~mode:`Naive ~max_runs:20_000 s in
  let dpor =
    Schedsim.Explore.explore ~mode:`Dpor ~max_runs:20_000
      (counter (module Classic_stm.Tl2))
  in
  (* A definite naive verdict must be reproduced exactly; a naive budget
     exhaustion decides nothing, and DPOR exists to decide within it. *)
  match naive with
  | Schedsim.Explore.Out_of_budget _ ->
    Alcotest.(check string) "dpor decides" "All_ok" (verdict dpor)
  | _ -> Alcotest.(check string) "verdicts agree" (verdict naive) (verdict dpor)

let suite =
  [ Alcotest.test_case "wset typed find" `Quick test_wset_find_typed;
    Alcotest.test_case "lock_all + install" `Quick test_lock_all_and_install;
    Alcotest.test_case "lock_all rollback" `Quick
      test_lock_all_fails_and_rolls_back;
    Alcotest.test_case "rset validate" `Quick test_rset_validate;
    Alcotest.test_case "rset validate own lock" `Quick
      test_rset_validate_own_lock;
    Alcotest.test_case "read_consistent aborts on lock" `Quick
      test_read_consistent_aborts_on_lock;
    Alcotest.test_case "wset large set lock order + find after sort" `Quick
      test_wset_large_lock_order;
    Alcotest.test_case "rset filter_pe drops one pe" `Quick
      test_rset_filter_pe_drops_pe;
    Alcotest.test_case "rset clear empties for reuse" `Quick
      test_rset_clear_for_reuse;
    Alcotest.test_case "validation fault injection covers all entry points"
      `Quick test_validation_fault_injection;
    Alcotest.test_case "cleared wset releases tvar (gc)" `Quick
      test_wset_clear_releases_tvar;
    Alcotest.test_case "dpor verdicts unchanged by write-set lookups" `Slow
      test_dpor_private_pads;
    Alcotest.test_case "dpor vs naive on counter" `Slow
      test_dpor_naive_agree_counter;
    QCheck_alcotest.to_alcotest prop_wset_last_write_wins;
    QCheck_alcotest.to_alcotest prop_wset_differential;
    QCheck_alcotest.to_alcotest prop_rset_reference ]
