[@@@txlint.allow "stm-escape"
    "tests drive the escape hatches directly: preloads and post-run \
     state checks are quiescent"]

(* The pluggable global clock (DESIGN.md §5f): GV1, TL2-style GV4
   pass-on-failure, and GV5 increment-on-abort must be interchangeable
   without changing any observable STM semantics.

   Evidence, in increasing order of integration:
   - unit tests for each policy's arithmetic, including a deterministic
     GV4 CAS-race adoption via the [gv4_tick ~interference] hook (under a
     single domain the CAS never loses, so the race is driven by hand);
   - deterministic GV5 staleness: a TL2 reader needs exactly two
     catch-up aborts to reach a version installed at [now + 2], while an
     LSA reader accepts the same stale-but-valid location in one attempt
     through its extension path;
   - real-parallelism stress per policy, with the sanitizer on and a
     conserved invariant (no lost updates, no torn transfers);
   - the differential opacity harness: every policy runs the Fig. 1
     scenarios through both the DPOR explorer and the naive enumerator,
     and all verdicts must agree with each other and with GV1 — the
     clock policy may change performance, never outcomes;
   - a sanitized chaos lane per policy (fault injection + fallback +
     multi-domain stress) that must come back clean. *)

open Stm_core
open Schedsim

let with_policy p f =
  let saved = Clock.current_policy () in
  Clock.set_policy p;
  Fun.protect ~finally:(fun () -> Clock.set_policy saved) f

(* Run [f] with the sanitizer on (without double-enabling when the suite
   already runs under TXSAN=1) and check it recorded no new violations. *)
let sanitized name f =
  let was = Sanitizer.enabled () in
  if not was then Sanitizer.enable ();
  let before = Sanitizer.violation_count () in
  Fun.protect ~finally:(fun () -> if not was then Sanitizer.disable ()) f;
  Alcotest.(check int)
    (name ^ ": no new sanitizer violations")
    before
    (Sanitizer.violation_count ())

(* ------------------------------------------------------------------ *)
(* Policy naming                                                       *)

let test_policy_names () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Clock.policy_name p ^ " roundtrips")
        true
        (Clock.policy_of_string (Clock.policy_name p) = p))
    Clock.all_policies;
  Alcotest.(check bool) "parsing is case-insensitive" true
    (Clock.policy_of_string " GV4 " = Runtime.GV4);
  Alcotest.check_raises "unknown policy rejected"
    (Invalid_argument "Clock.policy_of_string: unknown policy gv2")
    (fun () -> ignore (Clock.policy_of_string "gv2"))

(* ------------------------------------------------------------------ *)
(* Per-policy arithmetic                                               *)

let test_gv1_tick () =
  with_policy Runtime.GV1 @@ fun () ->
  let c0 = Clock.now () in
  for i = 1 to 50 do
    Alcotest.(check int) "GV1 ticks by one" (c0 + i) (Clock.tick ())
  done;
  Alcotest.(check int) "clock advanced with the ticks" (c0 + 50) (Clock.now ());
  Clock.on_abort ();
  Alcotest.(check int) "GV1 aborts leave the clock alone" (c0 + 50)
    (Clock.now ())

let test_gv4_sequential () =
  with_policy Runtime.GV4 @@ fun () ->
  (* Uncontended, the CAS always wins: GV4 degenerates to GV1. *)
  let c0 = Clock.now () in
  for i = 1 to 50 do
    Alcotest.(check int) "uncontended GV4 ticks by one" (c0 + i) (Clock.tick ())
  done

let test_gv4_adoption () =
  with_policy Runtime.GV4 @@ fun () ->
  let c0 = Clock.now () in
  (* A competing committer slips its whole tick between our clock read
     and our CAS: we must lose the CAS and adopt its version, so the two
     commits share one write stamp (the paper-correct TL2/GV4 outcome —
     both hold their write locks, so neither can be half-read). *)
  let winner = ref 0 in
  let loser = Clock.gv4_tick ~interference:(fun () -> winner := Clock.tick ()) () in
  Alcotest.(check int) "interfering commit got c0+1" (c0 + 1) !winner;
  Alcotest.(check int) "loser adopts the winner's version" (c0 + 1) loser;
  Alcotest.(check int) "one bump total, not two" (c0 + 1) (Clock.now ());
  Alcotest.(check int) "the next tick moves on" (c0 + 2) (Clock.tick ())

let test_gv5_tick () =
  with_policy Runtime.GV5 @@ fun () ->
  let c0 = Clock.now () in
  Alcotest.(check int) "GV5 commits at now + 2" (c0 + 2) (Clock.tick ());
  Alcotest.(check int) "without touching the clock" c0 (Clock.now ());
  Clock.on_abort ();
  Alcotest.(check int) "an abort bumps by one" (c0 + 1) (Clock.now ());
  (* The floor rule: re-writing a location whose last committed version
     already reached [now + 2] must hand out a strictly larger version. *)
  let wv = Clock.tick ~floor:(fun () -> c0 + 9) () in
  Alcotest.(check int) "floor + 1 when the floor wins" (c0 + 10) wv;
  (* Leaving GV5 fences the clock above every version GV5 handed out, so
     GV1/GV4 cannot mint an already-used stamp. *)
  Clock.set_policy Runtime.GV1;
  Alcotest.(check bool) "exit fence clears the floor-raised version" true
    (Clock.now () >= wv)

(* ------------------------------------------------------------------ *)
(* Deterministic GV5 staleness through real engines                    *)

let test_gv5_tl2_staleness () =
  with_policy Runtime.GV5 @@ fun () ->
  let module S = Classic_stm.Tl2 in
  let tv = S.tvar 0 in
  let c0 = Clock.now () in
  S.atomic (fun ctx -> S.write ctx tv 1);
  Alcotest.(check int) "the lazy commit leaves the clock at c0" c0
    (Clock.now ());
  (* The value now sits at version c0 + 2.  TL2 has no read extension, so
     a fresh reader aborts Read_too_new twice — each abort bumps the
     clock by one — and succeeds on the third attempt, when rv = c0 + 2. *)
  let tries = ref 0 in
  let v =
    S.atomic (fun ctx ->
        incr tries;
        S.read ctx tv)
  in
  Alcotest.(check int) "reads the committed value" 1 v;
  Alcotest.(check int) "exactly two catch-up aborts" 3 !tries;
  Alcotest.(check int) "the aborts advanced the clock to the version"
    (c0 + 2) (Clock.now ())

let test_gv5_lsa_extension () =
  with_policy Runtime.GV5 @@ fun () ->
  let module S = Classic_stm.Lsa in
  let tv = S.tvar 0 in
  S.atomic (fun ctx -> S.write ctx tv 7);
  (* Same stale-but-valid read, but LSA extends the snapshot instead of
     aborting: one attempt, no clock catch-up needed. *)
  let tries = ref 0 in
  let v =
    S.atomic (fun ctx ->
        incr tries;
        S.read ctx tv)
  in
  Alcotest.(check int) "reads the committed value" 7 v;
  Alcotest.(check int) "a single attempt suffices" 1 !tries

(* Every GV5 commit below installs [clock + 2] and leaves the clock where
   it was.  Extending to [now] alone would leave the snapshot below each
   later read and validate the read set again on every one of them; the
   extension catches the clock up to the version it saw, so one
   validation covers all 2000 reads. *)
let test_gv5_extension_catches_up () =
  with_policy Runtime.GV5 @@ fun () ->
  let module S = Classic_stm.Lsa in
  let n = 2_000 in
  let tvs = Array.init n (fun _ -> S.tvar 0) in
  Array.iter (fun tv -> S.atomic (fun ctx -> S.write ctx tv 1)) tvs;
  let saved = Runtime.save_plane () in
  Runtime.plane.detailed <- true;
  Stats.reset S.stats;
  let sum =
    Fun.protect
      ~finally:(fun () -> Runtime.restore_plane saved)
      (fun () ->
        S.atomic (fun ctx ->
            Array.fold_left (fun a tv -> a + S.read ctx tv) 0 tvs))
  in
  (* The sanitizer's strict-opacity mode (TXSAN=1) validates once more at
     every read; those are not extension work. *)
  let validations =
    Stats.Hist.count (Stats.snapshot S.stats).Stats.validation_len
    - if Option.is_some Runtime.plane.sanitizer then n else 0
  in
  Alcotest.(check int) "reads every committed value" n sum;
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 extension validations (%d)" validations)
    true (validations <= 2)

(* ------------------------------------------------------------------ *)
(* Real-parallelism stress, sanitized                                  *)

(* Two domains hammer one counter: GV4's adoption path actually fires
   (CAS losses under contention), and the result must still be exact. *)
let contended_counter policy () =
  with_policy policy @@ fun () ->
  sanitized ("counter/" ^ Clock.policy_name policy) @@ fun () ->
  let module S = Classic_stm.Tl2 in
  let n = 1_000 in
  let shared = S.tvar 0 in
  let c0 = Clock.now () in
  let worker () =
    for _ = 1 to n do
      S.atomic (fun ctx -> S.write ctx shared (S.read ctx shared + 1))
    done
  in
  let ds = Array.init 2 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" (2 * n) (S.peek shared);
  Alcotest.(check bool) "the clock moved" true (Clock.now () > c0)

(* Three domains transfer between four accounts under TL2 and OE-STM:
   conservation plus a clean sanitizer are the whole spec. *)
let sanitized_transfers policy () =
  with_policy policy @@ fun () ->
  sanitized ("transfers/" ^ Clock.policy_name policy) @@ fun () ->
  List.iter
    (fun (module S : Stm_intf.S) ->
      let accounts = Array.init 4 (fun _ -> S.tvar 100) in
      let worker seed () =
        let rng = ref seed in
        let next m =
          rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
          !rng mod m
        in
        for _ = 1 to 300 do
          let src = next 4 and dst = next 4 in
          S.atomic (fun ctx ->
              let a = S.read ctx accounts.(src) in
              let b = S.read ctx accounts.(dst) in
              if src <> dst then begin
                S.write ctx accounts.(src) (a - 1);
                S.write ctx accounts.(dst) (b + 1)
              end)
        done
      in
      let ds = Array.init 3 (fun i -> Domain.spawn (worker (i + 1))) in
      Array.iter Domain.join ds;
      let total = Array.fold_left (fun acc tv -> acc + S.peek tv) 0 accounts in
      Alcotest.(check int) (S.name ^ ": conservation") 400 total)
    [ (module Classic_stm.Tl2 : Stm_intf.S); (module Oestm.Oe : Stm_intf.S) ]

(* ------------------------------------------------------------------ *)
(* The differential opacity harness                                    *)

(* Each scenario runs under every policy, in both exploration modes.  A
   definite naive verdict must match DPOR's (the explorer contract), and
   every policy's DPOR verdict must match GV1's (the clock contract). *)
let diff_scenarios =
  [ ("fig1/OE-STM", 20_000,
     fun () -> Test_dpor.fig1 (module Oestm.Oe : Stm_intf.S));
    ("fig1/E-STM(drop)", 20_000,
     fun () -> Test_dpor.fig1 (module Oestm.E_broken : Stm_intf.S));
    ("fig1/TL2", 20_000,
     fun () -> Test_dpor.fig1 (module Classic_stm.Tl2 : Stm_intf.S));
    ("counter/TL2", 20_000,
     fun () -> Test_dpor.counter (module Classic_stm.Tl2 : Stm_intf.S)) ]

let test_cross_policy_verdicts () =
  List.iter
    (fun (name, max_runs, mk) ->
      let verdicts =
        List.map
          (fun p ->
            with_policy p @@ fun () ->
            let naive = Explore.explore ~mode:`Naive ~max_runs (mk ()) in
            let dpor = Explore.explore ~mode:`Dpor ~max_runs (mk ()) in
            (match naive with
            | Explore.Out_of_budget _ -> ()
            | _ ->
              Alcotest.(check string)
                (Printf.sprintf "%s under %s: DPOR matches naive" name
                   (Clock.policy_name p))
                (Test_dpor.verdict_name naive)
                (Test_dpor.verdict_name dpor));
            Test_dpor.verdict_name dpor)
          Clock.all_policies
      in
      match verdicts with
      | gv1 :: rest ->
        List.iteri
          (fun i v ->
            Alcotest.(check string)
              (Printf.sprintf "%s: %s agrees with gv1" name
                 (Clock.policy_name (List.nth Clock.all_policies (i + 1))))
              gv1 v)
          rest
      | [] -> assert false)
    diff_scenarios

(* Anchor the sweep to known ground truth so agreement cannot be vacuous:
   the safe Fig. 1 composition proves out, the drop-composition bug is
   caught, under every policy. *)
let test_policy_ground_truth () =
  List.iter
    (fun p ->
      with_policy p @@ fun () ->
      (match
         Explore.explore ~mode:`Dpor ~max_runs:20_000
           (Test_dpor.fig1 (module Oestm.Oe : Stm_intf.S))
       with
      | Explore.All_ok _ -> ()
      | r ->
        Alcotest.failf "fig1/OE under %s: expected All_ok, got %s"
          (Clock.policy_name p) (Test_dpor.verdict_name r));
      match
        Explore.explore ~mode:`Dpor ~max_runs:20_000
          (Test_dpor.fig1_cycle3 (module Oestm.E_broken : Stm_intf.S))
      with
      | Explore.Violation _ -> ()
      | r ->
        Alcotest.failf "cycle3/E-STM(drop) under %s: expected Violation, got %s"
          (Clock.policy_name p) (Test_dpor.verdict_name r))
    Clock.all_policies

(* ------------------------------------------------------------------ *)
(* Sanitized chaos lane                                                *)

let chaos_lane policy () =
  with_policy policy @@ fun () ->
  sanitized ("chaos/" ^ Clock.policy_name policy) @@ fun () ->
  List.iter
    (fun engine ->
      let r =
        Harness.Chaos.run_engine ~seeds:[ 11 ] ~runs_per_seed:10
          ~stress_domains:2 ~stress_txns:100 engine
      in
      Alcotest.(check bool)
        (Harness.Chaos.engine_name engine ^ " under "
        ^ Clock.policy_name policy ^ ": chaos clean")
        true
        (Harness.Chaos.ok r))
    [ Harness.Chaos.TL2; Harness.Chaos.OE ]

(* ------------------------------------------------------------------ *)

let per_policy name case =
  List.map
    (fun p ->
      Alcotest.test_case
        (Printf.sprintf "%s under %s" name (Clock.policy_name p))
        `Slow (case p))
    Clock.all_policies

let suite =
  [ Alcotest.test_case "policy names roundtrip" `Quick test_policy_names;
    Alcotest.test_case "GV1 ticks by one" `Quick test_gv1_tick;
    Alcotest.test_case "GV4 uncontended ticks by one" `Quick
      test_gv4_sequential;
    Alcotest.test_case "GV4 CAS loser adopts the winner" `Quick
      test_gv4_adoption;
    Alcotest.test_case "GV5 lazy tick, abort bump, floor, exit fence" `Quick
      test_gv5_tick;
    Alcotest.test_case "GV5/TL2: stale read costs two catch-up aborts" `Quick
      test_gv5_tl2_staleness;
    Alcotest.test_case "GV5/LSA: stale-but-valid read extends in place" `Quick
      test_gv5_lsa_extension;
    Alcotest.test_case "GV5/LSA: one extension covers later commits" `Quick
      test_gv5_extension_catches_up;
    Alcotest.test_case "differential: verdicts agree across policies" `Slow
      test_cross_policy_verdicts;
    Alcotest.test_case "ground truth holds under every policy" `Slow
      test_policy_ground_truth ]
  @ per_policy "contended counter (2 domains, sanitized)" contended_counter
  @ per_policy "transfers conserve (3 domains, sanitized)" sanitized_transfers
  @ per_policy "chaos lane (faults + fallback + stress)" chaos_lane
