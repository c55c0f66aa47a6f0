[@@@txlint.allow "stm-escape"
    "tests drive the escape hatches directly: preloads and post-run \
     state checks are quiescent"]

(* View transactions (Section VIII): the critical view is the minimal
   protected set, the programmer chooses it, nested commits outherit it.

   The decisive demonstration is the Fig. 1 scenario with the guard read
   either critically or weakly: critical -> safe in EVERY interleaving;
   weak -> the explorer finds the atomicity violation.  Outheritance is
   model-agnostic: elastic transactions slide the window automatically,
   view transactions hand the knob to the programmer. *)

open Stm_core
open Schedsim
module V = Viewstm.V

(* The view STM satisfies the generic semantics battery through its
   Stm_intf.S sub-signature. *)
module Battery = Test_stm_semantics.Battery (Viewstm.V)

let test_weak_read_not_validated () =
  let a = V.tvar 0 and d = V.tvar 0 in
  Stats.reset V.stats;
  let fired = ref false in
  V.atomic (fun ctx ->
      ignore (V.read_weak ctx a);
      if not !fired then begin
        fired := true;
        Domain.join (Domain.spawn (fun () -> V.atomic (fun c -> V.write c a 9)))
      end;
      V.write ctx d 1);
  Alcotest.(check int) "no abort: weak reads are not revalidated" 0
    (Stats.snapshot V.stats).Stats.aborts;
  Alcotest.(check (pair int int)) "both committed" (9, 1) (V.peek a, V.peek d)

let test_critical_read_validated () =
  let a = V.tvar 0 and d = V.tvar 0 in
  Stats.reset V.stats;
  let fired = ref false in
  V.atomic (fun ctx ->
      ignore (V.read ctx a);
      if not !fired then begin
        fired := true;
        Domain.join (Domain.spawn (fun () -> V.atomic (fun c -> V.write c a 9)))
      end;
      V.write ctx d 1);
  Alcotest.(check bool) "critical read conflicts abort" true
    ((Stats.snapshot V.stats).Stats.aborts >= 1);
  Alcotest.(check (pair int int)) "retry converges" (9, 1)
    (V.peek a, V.peek d)

(* Fig. 1 with the guard in or out of the critical view. *)
let scenario ~critical_guard () =
  let x = V.tvar false and y = V.tvar false in
  let contains tv =
    V.atomic (fun ctx ->
        if critical_guard then V.read ctx tv else V.read_weak ctx tv)
  in
  let insert tv = V.atomic (fun ctx -> V.write ctx tv true) in
  let insert_if_absent ~target ~guard =
    V.atomic (fun _ -> if not (contains guard) then ignore (insert target))
  in
  let procs =
    [ (fun () -> insert_if_absent ~target:x ~guard:y);
      (fun () -> insert_if_absent ~target:y ~guard:x) ]
  in
  let ok () = not (V.peek x && V.peek y) in
  (procs, ok)

let explore_guard ~critical_guard =
  let holds = ref (fun () -> true) in
  Explore.explore ~max_runs:4_000
    { Explore.procs =
        (fun () ->
          let procs, ok = scenario ~critical_guard () in
          holds := ok;
          procs);
      check = (fun _ -> !holds ()) }

let test_critical_view_composes () =
  match explore_guard ~critical_guard:true with
  | Explore.Violation { schedule; _ } ->
    Alcotest.failf "critical view violated under [%s]"
      (String.concat ";" (List.map string_of_int schedule))
  | Explore.All_ok { explored; pruned } ->
    Alcotest.(check bool) "meaningfully explored" true
      (explored > 0 && explored + pruned > 10)
  | Explore.Out_of_budget _ -> ()

let test_weak_guard_breaks () =
  match explore_guard ~critical_guard:false with
  | Explore.Violation _ -> ()
  | Explore.All_ok { explored; _ } | Explore.Out_of_budget { explored; _ } ->
    Alcotest.failf
      "guard outside the critical view should break in some interleaving \
       (%d explored)"
      explored

(* The outheritance story on recorded histories: a composition whose
   children read critically satisfies Def 4.1; weak guard reads leave
   Pmin empty, so there is nothing to protect (and correctness is on the
   programmer, as the paper says of view-style models). *)
let test_recorded_view_outheritance () =
  let events, _ =
    Recorder.record (fun () ->
        Sched.run
          [ (fun () ->
              let procs, _ = scenario ~critical_guard:true () in
              (List.hd procs) ()) ])
  in
  let h = Histories.Convert.to_history events in
  let committed = Histories.History.committed h in
  let children =
    match List.rev committed with _root :: r -> List.rev r | [] -> []
  in
  Alcotest.(check int) "two children" 2 (List.length children);
  let c = Histories.Composition.make_exn h children in
  Alcotest.(check bool) "critical view is outherited" true
    (Histories.Outheritance.satisfies h c);
  (* The contains child's Pmin is exactly its critical view. *)
  Alcotest.(check int) "contains child protects its guard" 1
    (List.length (Histories.History.pmin h (List.hd children)))

(* Detailed statistics see View-STM's footprint: one transaction, one
   read-set sample holding its k critical reads. *)
let test_footprint_recorded () =
  let k = 5 in
  let tvs = Array.init k V.tvar in
  let saved = Stats.detailed_enabled () in
  Stats.set_detailed true;
  Stats.reset V.stats;
  Fun.protect
    ~finally:(fun () -> Stats.set_detailed saved)
    (fun () ->
      ignore
        (V.atomic (fun ctx ->
             Array.fold_left (fun acc tv -> acc + V.read ctx tv) 0 tvs)));
  let snap = Stats.snapshot V.stats in
  Alcotest.(check int) "one read-set sample" 1
    (Stats.Hist.count snap.Stats.read_set_size);
  Alcotest.(check int) "holding the k critical reads"
    (Stats.Hist.upper_bound (Stats.Hist.bucket_of k))
    (Stats.Hist.max_value snap.Stats.read_set_size)

let suite =
  [ Alcotest.test_case "weak reads are not validated" `Quick
      test_weak_read_not_validated;
    Alcotest.test_case "critical reads are validated" `Quick
      test_critical_read_validated;
    Alcotest.test_case "critical view composes (all interleavings)" `Slow
      test_critical_view_composes;
    Alcotest.test_case "weak guard admits the Fig. 1 violation" `Slow
      test_weak_guard_breaks;
    Alcotest.test_case "recorded view outheritance" `Quick
      test_recorded_view_outheritance;
    Alcotest.test_case "detailed stats record the footprint" `Quick
      test_footprint_recorded ]

let battery_suite = Battery.suite
