[@@@txlint.allow "stm-escape"
    "tests drive the escape hatches directly: preloads and post-run \
     state checks are quiescent"]

(* The DPOR explorer's contract: identical verdicts to the naive
   enumerator on every scenario, at a fraction of the runs.

   Three layers of evidence:
   - unit tests for the [Dep] commutativity relation;
   - a differential sweep: every Fig. 1-style scenario runs under both
     modes and must produce the same verdict, with DPOR never exploring
     more runs than naive and pruning at least one branch on the safe
     Fig. 1 instances;
   - outcome-set equivalence: on a scenario with several legal final
     states, the set of distinct outcomes DPOR witnesses must equal the
     naive one — pruning may drop redundant schedules, never behaviours;
   - the scaling payoff: 3-process compositions that naive leaves
     [Out_of_budget] at 20_000 runs get a definite verdict from DPOR. *)

open Stm_core
open Schedsim

(* ------------------------------------------------------------------ *)
(* Dep unit tests                                                      *)

let test_dep_access () =
  let open Runtime in
  let dep = Dep.dependent_access in
  Alcotest.(check bool) "pure/pure" false (dep Pure Pure);
  Alcotest.(check bool) "pure/write" false (dep Pure (Write 1));
  Alcotest.(check bool) "read/read same loc" false (dep (Read 1) (Read 1));
  Alcotest.(check bool) "read/write same loc" true (dep (Read 1) (Write 1));
  Alcotest.(check bool) "write/read same loc" true (dep (Write 1) (Read 1));
  Alcotest.(check bool) "write/write same loc" true (dep (Write 1) (Write 1));
  Alcotest.(check bool) "lock/read same loc" true (dep (Lock 1) (Read 1));
  Alcotest.(check bool) "write/write diff loc" false (dep (Write 1) (Write 2));
  Alcotest.(check bool) "lock/lock diff loc" false (dep (Lock 1) (Lock 2))

let test_dep_footprints () =
  let open Runtime in
  let fp = Dep.of_accesses in
  Alcotest.(check bool) "pure-only footprint is empty" true
    (Dep.is_empty (fp [ Pure; Pure ]));
  Alcotest.(check bool) "read sets vs read sets commute" false
    (Dep.dependent (fp [ Read 1; Read 2 ]) (fp [ Read 2; Read 3 ]));
  Alcotest.(check bool) "store on the shared loc conflicts" true
    (Dep.dependent (fp [ Read 1; Write 2 ]) (fp [ Read 2; Read 3 ]));
  Alcotest.(check bool) "disjoint store sets commute" false
    (Dep.dependent (fp [ Write 1; Lock 4 ]) (fp [ Write 2; Read 3 ]));
  Alcotest.(check bool) "duplicate accesses collapse" true
    (Dep.dependent
       (fp [ Read 5; Read 5; Lock 5 ])
       (fp [ Read 5 ]));
  Alcotest.(check bool) "clock is an ordinary location" true
    (Dep.dependent (fp [ Write clock_pe ]) (fp [ Read clock_pe ]))

(* [iter] lists each touched location once, in increasing order, with
   whether some access stored to it; [dependent] is exactly "a shared
   location stored to on either side" over those lists. *)
let dep_iter_prop =
  let access =
    QCheck.Gen.(
      map2
        (fun kind loc ->
          match kind with
          | 0 -> Runtime.Pure
          | 1 -> Runtime.Read loc
          | 2 -> Runtime.Write loc
          | _ -> Runtime.Lock loc)
        (int_bound 3) (int_bound 4))
  in
  let entries accs =
    let out = ref [] in
    Dep.iter
      (fun ~loc ~stores -> out := (loc, stores) :: !out)
      (Dep.of_accesses accs);
    List.rev !out
  in
  let faithful accs es =
    let locs =
      List.filter_map
        (function
          | Runtime.Pure -> None
          | Runtime.Read l | Runtime.Write l | Runtime.Lock l -> Some l)
        accs
    in
    let stored loc =
      List.exists
        (function
          | Runtime.Write l | Runtime.Lock l -> l = loc
          | Runtime.Pure | Runtime.Read _ -> false)
        accs
    in
    List.map fst es = List.sort_uniq compare locs
    && List.for_all (fun (loc, stores) -> stores = stored loc) es
  in
  QCheck.Test.make ~name:"Dep: iter agrees with dependent" ~count:500
    QCheck.(
      make
        Gen.(pair (list_size (int_bound 5) access) (list_size (int_bound 5) access)))
    (fun (a, b) ->
      let ea = entries a and eb = entries b in
      let shared_store =
        List.exists
          (fun (loc, s) ->
            List.exists (fun (loc', s') -> loc = loc' && (s || s')) eb)
          ea
      in
      faithful a ea && faithful b eb
      && shared_store = Dep.dependent (Dep.of_accesses a) (Dep.of_accesses b))

(* ------------------------------------------------------------------ *)
(* Scenario builders                                                   *)

(* The paper's Fig. 1: two flags, insertIfAbsent(mine, other) on each
   process, invariant "never both set". *)
let fig1 (module S : Stm_intf.S) =
  let holds = ref (fun () -> true) in
  { Explore.procs =
      (fun () ->
        let x = S.tvar false and y = S.tvar false in
        let contains tv = S.atomic ~mode:Elastic (fun ctx -> S.read ctx tv) in
        let insert tv =
          S.atomic ~mode:Elastic (fun ctx -> S.write ctx tv true)
        in
        let insert_if_absent ~target ~guard =
          S.atomic ~mode:Elastic (fun _ ->
              if not (contains guard) then ignore (insert target))
        in
        holds := (fun () -> not (S.peek x && S.peek y));
        [ (fun () -> insert_if_absent ~target:x ~guard:y);
          (fun () -> insert_if_absent ~target:y ~guard:x) ]);
    check = (fun _ -> !holds ()) }

(* 3-process generalisation: a cycle x<-y, y<-z, z<-x.  Any serializable
   execution leaves at least one guard observed unset before its target is
   written, so all three flags can never be set. *)
let fig1_cycle3 (module S : Stm_intf.S) =
  let holds = ref (fun () -> true) in
  { Explore.procs =
      (fun () ->
        let x = S.tvar false and y = S.tvar false and z = S.tvar false in
        let contains tv = S.atomic ~mode:Elastic (fun ctx -> S.read ctx tv) in
        let insert tv =
          S.atomic ~mode:Elastic (fun ctx -> S.write ctx tv true)
        in
        let insert_if_absent ~target ~guard =
          S.atomic ~mode:Elastic (fun _ ->
              if not (contains guard) then ignore (insert target))
        in
        holds := (fun () -> not (S.peek x && S.peek y && S.peek z));
        [ (fun () -> insert_if_absent ~target:x ~guard:y);
          (fun () -> insert_if_absent ~target:y ~guard:z);
          (fun () -> insert_if_absent ~target:z ~guard:x) ]);
    check = (fun _ -> !holds ()) }

(* Two increments per process on one counter; a lost update breaks it. *)
let counter (module S : Stm_intf.S) =
  let value = ref (fun () -> 0) in
  { Explore.procs =
      (fun () ->
        let c = S.tvar 0 in
        let incr () = S.atomic (fun ctx -> S.write ctx c (S.read ctx c + 1)) in
        value := (fun () -> S.peek c);
        let proc () =
          incr ();
          incr ()
        in
        [ proc; proc ]);
    check =
      (fun outcome -> (not (Sched.completed outcome)) || !value () = 4) }

(* An OE-STM skip list preloaded with 1 and 3, [add_all [2; 4]] against
   [contains 2].  In many of its schedules one process retries up to the
   explorer's cap while the other is descheduled, so runs are thousands
   of steps long: the race analysis's worst case. *)
let skiplist_add_all_vs_contains =
  let module Set = Eec.Skip_list_set.Make (Oestm.Oe) (Eec.Set_intf.Int_key) in
  { Explore.procs =
      (fun () ->
        let s = Set.create () in
        Set.unsafe_preload s [ 1; 3 ];
        [ (fun () -> ignore (Set.add_all s [ 2; 4 ]));
          (fun () -> ignore (Set.contains s 2)) ]);
    check = (fun _ -> true) }

let verdict_name = function
  | Explore.All_ok _ -> "All_ok"
  | Explore.Violation _ -> "Violation"
  | Explore.Out_of_budget _ -> "Out_of_budget"

let explored_of = function
  | Explore.All_ok { explored; _ }
  | Explore.Violation { explored; _ }
  | Explore.Out_of_budget { explored; _ } ->
    explored

(* ------------------------------------------------------------------ *)
(* Differential sweep                                                  *)

let differential ~name ?(max_runs = 20_000) scenario () =
  let naive = Explore.explore ~mode:`Naive ~max_runs scenario in
  let dpor = Explore.explore ~mode:`Dpor ~max_runs scenario in
  (* A definite naive verdict must be reproduced exactly.  When naive runs
     out of budget it decides nothing, and DPOR is allowed to (indeed,
     exists to) reach a definite verdict within the same budget. *)
  (match naive with
  | Explore.Out_of_budget _ -> ()
  | _ ->
    Alcotest.(check string)
      (name ^ ": same verdict")
      (verdict_name naive) (verdict_name dpor));
  Alcotest.(check bool)
    (name ^ ": DPOR explores no more runs than naive")
    true
    (explored_of dpor <= explored_of naive)

(* The eager-locking engines burn real time in contention spin loops, so
   their naive sweeps get a smaller budget (they exceed either one). *)
let diff_cases =
  [ ("fig1/OE-STM", 20_000, fig1 (module Oestm.Oe));
    ("fig1/E-STM(drop)", 20_000, fig1 (module Oestm.E_broken));
    ("fig1/TL2", 20_000, fig1 (module Classic_stm.Tl2));
    ("fig1/LSA", 2_000, fig1 (module Classic_stm.Lsa));
    ("fig1/SwissTM", 2_000, fig1 (module Classic_stm.Swisstm));
    ("counter/OE-STM", 20_000, counter (module Oestm.Oe));
    ("counter/TL2", 20_000, counter (module Classic_stm.Tl2)) ]

(* On the safe Fig. 1 instances DPOR must be a strict improvement:
   strictly fewer runs, with the difference reported as pruned. *)
let test_fig1_strictly_pruned () =
  List.iter
    (fun (name, (module S : Stm_intf.S)) ->
      let naive = Explore.explore ~mode:`Naive (fig1 (module S)) in
      match Explore.explore ~mode:`Dpor (fig1 (module S)) with
      | Explore.All_ok { explored; pruned } ->
        Alcotest.(check bool) (name ^ ": pruned > 0") true (pruned > 0);
        Alcotest.(check bool)
          (name ^ ": strictly fewer runs")
          true
          (explored < explored_of naive)
      | r -> Alcotest.failf "%s: expected All_ok, got %s" name (verdict_name r))
    [ ("OE-STM", (module Oestm.Oe : Stm_intf.S));
      ("TL2", (module Classic_stm.Tl2 : Stm_intf.S)) ]

(* ------------------------------------------------------------------ *)
(* Pinned counts                                                       *)

(* The race analysis visits, for each step, only the earlier steps that
   share a location with it.  Which races it finds decides every
   backtrack point, so the exact run and prune counts pin it: these are
   the counts a scan of the whole prefix for every step gives.  The clock
   policy decides which steps touch the clock, so it is fixed to GV1. *)
let pinned ~name ~max_runs scenario (want_verdict, want_explored, want_pruned)
    () =
  let saved = Clock.current_policy () in
  Clock.set_policy Runtime.GV1;
  Fun.protect
    ~finally:(fun () -> Clock.set_policy saved)
    (fun () ->
      let r = Explore.explore ~mode:`Dpor ~max_runs scenario in
      let explored, pruned =
        match r with
        | Explore.All_ok { explored; pruned }
        | Explore.Violation { explored; pruned; _ }
        | Explore.Out_of_budget { explored; pruned } ->
          (explored, pruned)
      in
      Alcotest.(check (triple string int int))
        (name ^ ": verdict, runs, pruned")
        (want_verdict, want_explored, want_pruned)
        (verdict_name r, explored, pruned))

let pinned_cases =
  [ ("fig1/OE-STM", 20_000, fig1 (module Oestm.Oe), ("All_ok", 6, 16));
    ("fig1/TL2", 20_000, fig1 (module Classic_stm.Tl2), ("All_ok", 6, 16));
    ("counter/OE-STM", 20_000, counter (module Oestm.Oe), ("All_ok", 41, 140));
    ( "3-cycle/OE-STM", 20_000, fig1_cycle3 (module Oestm.Oe),
      ("All_ok", 44, 224) );
    ( "3-cycle/E-STM(drop)", 20_000, fig1_cycle3 (module Oestm.E_broken),
      ("Violation", 7, 9) );
    ( "skip list add_all || contains/OE-STM", 3_000,
      skiplist_add_all_vs_contains, ("All_ok", 1007, 31122) ) ]

(* ------------------------------------------------------------------ *)
(* Outcome-set equivalence                                             *)

(* Last-writer-wins race plus an independent flag: four legal outcomes.
   Every mode must witness exactly the same set of final states. *)
let witnessed_outcomes mode =
  let seen = Hashtbl.create 16 in
  let state = ref (fun () -> (0, false)) in
  let scenario =
    { Explore.procs =
        (fun () ->
          let module S = Oestm.Oe in
          let winner = S.tvar 0 and flag = S.tvar false in
          state := (fun () -> (S.peek winner, S.peek flag));
          [ (fun () -> S.atomic (fun ctx -> S.write ctx winner 1));
            (fun () -> S.atomic (fun ctx -> S.write ctx winner 2));
            (fun () -> S.atomic (fun ctx -> S.write ctx flag true)) ]);
      check =
        (fun outcome ->
          if Sched.completed outcome then
            Hashtbl.replace seen (!state ()) ();
          true) }
  in
  (* The naive tree for this scenario has 34_650 schedules; give both
     modes room to exhaust it so the witnessed sets are complete. *)
  (match Explore.explore ~mode ~max_runs:50_000 scenario with
  | Explore.All_ok _ -> ()
  | r ->
    Alcotest.failf "outcome collection should exhaust the tree, got %s"
      (verdict_name r));
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

let test_outcome_sets_equal () =
  let naive = witnessed_outcomes `Naive in
  let dpor = witnessed_outcomes `Dpor in
  Alcotest.(check (list (pair int bool)))
    "DPOR witnesses the same final states as naive" naive dpor;
  Alcotest.(check bool)
    "the race is actually visible (both writers can win)"
    true
    (List.mem (1, true) dpor && List.mem (2, true) dpor)

(* ------------------------------------------------------------------ *)
(* Scaling: 3-process scenarios                                        *)

let test_three_proc_oe_definite () =
  (* Naive drowns: 20_000 runs do not exhaust the 3-process tree. *)
  (match
     Explore.explore ~mode:`Naive ~max_runs:20_000
       (fig1_cycle3 (module Oestm.Oe))
   with
  | Explore.Out_of_budget _ -> ()
  | r ->
    Alcotest.failf "naive should exhaust its budget, got %s" (verdict_name r));
  (* DPOR proves the invariant with a definite verdict. *)
  match
    Explore.explore ~mode:`Dpor ~max_runs:20_000 (fig1_cycle3 (module Oestm.Oe))
  with
  | Explore.All_ok { explored; pruned } ->
    Alcotest.(check bool) "definite verdict within budget" true
      (explored < 20_000);
    Alcotest.(check bool) "pruning did the work" true (pruned > 0)
  | r -> Alcotest.failf "DPOR should prove All_ok, got %s" (verdict_name r)

let test_three_proc_drop_violation () =
  (* The drop-composition bug is still found in the reduced tree. *)
  match
    Explore.explore ~mode:`Dpor ~max_runs:20_000
      (fig1_cycle3 (module Oestm.E_broken))
  with
  | Explore.Violation { schedule; _ } ->
    Alcotest.(check bool) "non-empty witness schedule" true (schedule <> [])
  | r -> Alcotest.failf "DPOR should find the violation, got %s" (verdict_name r)

let suite =
  [ Alcotest.test_case "Dep: single-access dependence" `Quick test_dep_access;
    Alcotest.test_case "Dep: footprint dependence" `Quick test_dep_footprints;
    QCheck_alcotest.to_alcotest dep_iter_prop;
    Alcotest.test_case "fig1 is strictly pruned" `Quick
      test_fig1_strictly_pruned;
    Alcotest.test_case "DPOR and naive witness identical outcome sets" `Quick
      test_outcome_sets_equal;
    Alcotest.test_case "3-process OE cycle: definite under DPOR only" `Quick
      test_three_proc_oe_definite;
    Alcotest.test_case "3-process drop cycle: violation under DPOR" `Quick
      test_three_proc_drop_violation ]
  @ List.map
      (fun (name, max_runs, scenario) ->
        Alcotest.test_case ("differential: " ^ name) `Quick
          (differential ~name ~max_runs scenario))
      diff_cases
  @ List.map
      (fun (name, max_runs, scenario, want) ->
        Alcotest.test_case ("pinned: " ^ name) `Quick
          (pinned ~name ~max_runs scenario want))
      pinned_cases
