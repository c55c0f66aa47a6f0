[@@@txlint.allow "stm-escape"
    "tests drive the escape hatches directly: preloads and post-run \
     state checks are quiescent"]

[@@@txlint.allow "lock-release"
    "tests exercise the lock primitives directly and assert the release \
     behaviour themselves"]

(* Txsan, the transactional sanitizer (lib/stm_core/sanitizer.ml).

   Two families:

   - clean runs: every engine's multi-domain workload, and a chaos run
     with fault injection, must produce {e zero} sanitizer reports while
     provably exercising the checks (the counters must move);
   - deliberate violations: a seeded unsafe-write race, an escaped peek,
     a swallowed abort, a "broken engine" committing without validating,
     and driven lock-discipline violations must each be caught with the
     expected report kind. *)

open Stm_core

let san_kind k = List.assoc k (Sanitizer.counts_by_kind ())

(* Each test starts from a clean sanitizer and leaves a clean one behind,
   so the TXSAN=1 gate (zero violations over the whole run) still holds
   after the deliberate-violation tests.  The sanitizer stays enabled when
   the TXSAN lane asked for it. *)
let with_san f =
  Sanitizer.enable ();
  Sanitizer.reset ();
  Fun.protect
    ~finally:(fun () ->
      Sanitizer.reset ();
      if Sys.getenv_opt "TXSAN" = None then Sanitizer.disable ())
    f

(* ------------------------------------------------------------------ *)
(* Clean runs                                                          *)

let clean_engine (module S : Stm_intf.S) () =
  with_san (fun () ->
      let n = 4 in
      let preload = 100 in
      let tvs = Array.init n (fun _ -> S.tvar preload) in
      let worker d () =
        for j = 1 to 150 do
          let a = (d + j) mod n in
          let b = (a + 1 + (j mod (n - 1))) mod n in
          if a <> b then
            S.atomic (fun ctx ->
                let va = S.read ctx tvs.(a) in
                let vb = S.read ctx tvs.(b) in
                S.write ctx tvs.(a) (va - 1);
                S.write ctx tvs.(b) (vb + 1))
        done
      in
      let ds = List.init 4 (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join ds;
      Alcotest.(check int) "conserved" (n * preload)
        (Array.fold_left (fun acc tv -> acc + S.peek tv) 0 tvs);
      let c = Sanitizer.checks () in
      Alcotest.(check bool) "reads were validated" true
        (c.Sanitizer.reads_validated > 0);
      Alcotest.(check bool) "commits were checked" true
        (c.Sanitizer.commits_checked > 0);
      Alcotest.(check bool) "locks were tracked" true
        (c.Sanitizer.lock_transitions > 0);
      Alcotest.(check bool) "attempts were audited" true
        (c.Sanitizer.attempts_audited > 0);
      Alcotest.(check int) "zero violations" 0 (Sanitizer.violation_count ()))

module BBase = Seqds.Hash (Seqds.Int_key)

module BSet =
  Boosting.Boost
    (struct
      type elt = int
      type t = BBase.t

      let create () = BBase.create ()
      let contains = BBase.contains
      let add = BBase.add
      let remove = BBase.remove
    end)
    (struct
      let hash = Seqds.Int_key.hash
    end)

let test_clean_boosting () =
  with_san (fun () ->
      let s = BSet.create ~stripes:4 () in
      let txns = 100 in
      let worker d () =
        for i = 0 to txns - 1 do
          let base = 2 * ((d * txns) + i) in
          ignore (BSet.add_all s [ base; base + 1 ])
        done
      in
      let ds = List.init 3 (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join ds;
      Alcotest.(check bool) "all pairs present" true
        (List.for_all
           (fun d ->
             List.for_all
               (fun i ->
                 let base = 2 * ((d * txns) + i) in
                 BSet.contains s base && BSet.contains s (base + 1))
               (List.init txns Fun.id))
           [ 0; 1; 2 ]);
      let c = Sanitizer.checks () in
      Alcotest.(check bool) "abstract locks were tracked" true
        (c.Sanitizer.lock_transitions > 0);
      Alcotest.(check int) "zero violations" 0 (Sanitizer.violation_count ()))

(* Chaos under fault injection, sanitized: the schedule exploration is
   simulated (exempt by design); the multi-domain stress phase runs with
   every check live.  Zero reports expected on every engine. *)
let chaos_engine engine () =
  with_san (fun () ->
      let r =
        Harness.Chaos.run_engine ~seeds:[ 1 ] ~runs_per_seed:3
          ~stress_domains:2 ~stress_txns:50 engine
      in
      Alcotest.(check int)
        (Harness.Chaos.engine_name engine ^ " chaos run is sanitizer-clean")
        0 r.Harness.Chaos.san_violations;
      Alcotest.(check bool) "chaos verdict ok" true (Harness.Chaos.ok r))

(* ------------------------------------------------------------------ *)
(* Deliberate violations                                               *)

(* Park a transaction on another domain so escape checks have a live
   foreign transaction to race with, run [f], then release the gate. *)
let with_parked_tx (module S : Stm_intf.S) f =
  let tv = S.tvar 0 in
  let in_tx = Atomic.make false in
  let release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        S.atomic (fun ctx ->
            let v = S.read ctx tv in
            Atomic.set in_tx true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            v))
  in
  while not (Atomic.get in_tx) do
    Domain.cpu_relax ()
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      ignore (Domain.join d : int))
    f

let test_unsafe_write_race () =
  with_san (fun () ->
      let module S = Classic_stm.Tl2 in
      let victim = S.tvar 7 in
      with_parked_tx
        (module S)
        (fun () -> S.unsafe_write victim 42);
      Alcotest.(check int) "unsafe-write race caught" 1
        (san_kind Sanitizer.Unsafe_write_race))

let test_peek_escape () =
  with_san (fun () ->
      let module S = Classic_stm.Tl2 in
      let victim = S.tvar 7 in
      with_parked_tx
        (module S)
        (fun () -> ignore (S.peek victim : int));
      Alcotest.(check int) "escaped peek caught" 1
        (san_kind Sanitizer.Peek_escape))

let test_abort_swallowed () =
  with_san (fun () ->
      let module S = Classic_stm.Tl2 in
      S.atomic (fun _ ->
          (* The catch-all anti-pattern the lint also flags: an abort
             raised inside the body never reaches the retry loop. *)
          try Control.abort_tx Control.Explicit
          with Control.Abort_tx _ -> ());
      Alcotest.(check int) "swallowed abort caught" 1
        (san_kind Sanitizer.Abort_swallowed);
      (* The control case: an abort that does reach the loop (it retries
         and then commits) is not a violation. *)
      Sanitizer.reset ();
      let once = ref true in
      S.atomic (fun _ ->
          if !once then begin
            once := false;
            Control.abort_tx Control.Explicit
          end);
      Alcotest.(check int) "honest abort is clean" 0
        (Sanitizer.violation_count ()))

(* A "broken engine": commits at tick [wv] an entry whose location moved
   to a version within [wv] since the read — sound validation cannot let
   that through, so the sanitizer must. *)
let test_broken_engine_commit_stale () =
  with_san (fun () ->
      let l = Vlock.create ~pe:424242 () in
      let seen = Vlock.stamp l in  (* unlocked, version 0 *)
      (* Another commit moves the location to version 1... *)
      let saved = Vlock.try_lock_save l ~owner:88 in
      Alcotest.(check bool) "lock free" true (saved >= 0);
      ignore (Vlock.unlock_to_from l ~saved ~version:1);
      (* ...and the broken engine still commits its version-0 read at
         wv 2 without validating. *)
      let entry =
        { Rwsets.r_lock = l; Rwsets.r_seen = seen; Rwsets.r_pe = 424242 }
      in
      Sanitizer.on_commit ~owner:99 ~wv:2 (fun f -> f entry);
      Alcotest.(check int) "stale commit caught" 1
        (san_kind Sanitizer.Commit_stale);
      (* Post-validation interference (version beyond wv) is benign and
         must not be flagged. *)
      let saved = Vlock.try_lock_save l ~owner:88 in
      Alcotest.(check bool) "lock free" true (saved >= 0);
      ignore (Vlock.unlock_to_from l ~saved ~version:5);
      Sanitizer.on_commit ~owner:99 ~wv:2 (fun f -> f entry);
      Alcotest.(check int) "newer interference not flagged" 1
        (san_kind Sanitizer.Commit_stale))

let test_lock_discipline_driven () =
  with_san (fun () ->
      let ev e = Runtime.sanitizer_event e in
      ev (Runtime.San_acquire { pe = 555; owner = 1; version = 3 });
      ev (Runtime.San_acquire { pe = 555; owner = 2; version = 3 });
      Alcotest.(check int) "double acquire caught" 1
        (san_kind Sanitizer.Lock_imbalance);
      ev (Runtime.San_release { pe = 555; owner = 2; version = Some 2 });
      Alcotest.(check int) "version regress on release caught" 1
        (san_kind Sanitizer.Version_regress);
      ev (Runtime.San_release { pe = 555; owner = 2; version = None });
      Alcotest.(check int) "release while free caught" 2
        (san_kind Sanitizer.Lock_imbalance);
      ev (Runtime.San_acquire { pe = 555; owner = 1; version = 1 });
      Alcotest.(check int) "version regress on acquire caught" 2
        (san_kind Sanitizer.Version_regress);
      (* A release of a lock the sanitizer never saw acquired is a benign
         cold start, not an imbalance. *)
      ev (Runtime.San_release { pe = 556; owner = 9; version = Some 4 });
      Alcotest.(check int) "cold-start release not flagged" 2
        (san_kind Sanitizer.Lock_imbalance))

let test_zombie_read_aborts () =
  with_san (fun () ->
      (* Strict opacity: a failing revalidation at a read is an immediate
         abort attributed to the read, counted but not a violation. *)
      Alcotest.check_raises "aborts with Read_inconsistent"
        (Control.Abort_tx Control.Read_inconsistent) (fun () ->
          Sanitizer.on_tx_read ~validate:(fun () -> false));
      let c = Sanitizer.checks () in
      Alcotest.(check int) "counted as zombie abort" 1
        c.Sanitizer.zombie_aborts;
      Alcotest.(check int) "not a violation" 0 (Sanitizer.violation_count ());
      Sanitizer.on_tx_read ~validate:(fun () -> true);
      let c = Sanitizer.checks () in
      Alcotest.(check int) "both reads validated" 2
        c.Sanitizer.reads_validated)

let suite =
  [ Alcotest.test_case "TL2 multi-domain clean" `Quick
      (clean_engine (module Classic_stm.Tl2));
    Alcotest.test_case "LSA multi-domain clean" `Quick
      (clean_engine (module Classic_stm.Lsa));
    Alcotest.test_case "OE-STM multi-domain clean" `Quick
      (clean_engine (module Oestm.Oe));
    Alcotest.test_case "View-STM multi-domain clean" `Quick
      (clean_engine (module Oestm.View));
    Alcotest.test_case "boosting multi-domain clean" `Quick
      test_clean_boosting;
    Alcotest.test_case "OE-STM chaos clean" `Slow
      (chaos_engine Harness.Chaos.OE);
    Alcotest.test_case "TL2 chaos clean" `Slow
      (chaos_engine Harness.Chaos.TL2);
    Alcotest.test_case "View-STM chaos clean" `Slow
      (chaos_engine Harness.Chaos.View);
    Alcotest.test_case "boosting chaos clean" `Slow
      (chaos_engine Harness.Chaos.Boost);
    Alcotest.test_case "unsafe-write race detected" `Quick
      test_unsafe_write_race;
    Alcotest.test_case "peek escape detected" `Quick test_peek_escape;
    Alcotest.test_case "swallowed abort detected" `Quick
      test_abort_swallowed;
    Alcotest.test_case "broken engine: stale commit detected" `Quick
      test_broken_engine_commit_stale;
    Alcotest.test_case "lock discipline violations detected" `Quick
      test_lock_discipline_driven;
    Alcotest.test_case "zombie reads abort, not report" `Quick
      test_zombie_read_aborts ]
