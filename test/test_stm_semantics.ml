[@@@txlint.allow "stm-escape"
    "tests drive the escape hatches directly: preloads and post-run \
     state checks are quiescent"]

(* Semantics battery run against every STM implementation: TL2, LSA,
   SwissTM, OE-STM and the deliberately broken E-STM(drop).  These tests
   exercise properties that every (even relaxed) STM must provide for
   single transactions; composition-specific behaviour is tested
   separately. *)

open Stm_core

module Battery (S : Stm_intf.S) = struct
  let test_read_write_commit () =
    let tv = S.tvar 1 in
    let result = S.atomic (fun ctx -> S.read ctx tv) in
    Alcotest.(check int) "initial read" 1 result;
    S.atomic (fun ctx -> S.write ctx tv 2);
    Alcotest.(check int) "committed write" 2 (S.peek tv)

  let test_read_your_own_writes () =
    let tv = S.tvar 10 in
    let seen =
      S.atomic (fun ctx ->
          S.write ctx tv 20;
          let a = S.read ctx tv in
          S.write ctx tv 30;
          let b = S.read ctx tv in
          (a, b))
    in
    Alcotest.(check (pair int int)) "own writes visible" (20, 30) seen;
    Alcotest.(check int) "last write committed" 30 (S.peek tv)

  let test_multi_location () =
    let a = S.tvar 0 and b = S.tvar 0 and c = S.tvar 0 in
    S.atomic (fun ctx ->
        S.write ctx a 1;
        S.write ctx b 2;
        S.write ctx c (S.read ctx a + S.read ctx b));
    Alcotest.(check (list int)) "all-or-nothing commit" [ 1; 2; 3 ]
      [ S.peek a; S.peek b; S.peek c ]

  let test_user_exception_aborts () =
    let tv = S.tvar 5 in
    (try
       S.atomic (fun ctx ->
           S.write ctx tv 99;
           failwith "boom")
     with Failure _ -> ());
    Alcotest.(check int) "write rolled back" 5 (S.peek tv);
    Alcotest.(check bool) "no transaction left open" false (S.in_transaction ())

  let test_in_transaction () =
    Alcotest.(check bool) "outside" false (S.in_transaction ());
    let inside = S.atomic (fun _ -> S.in_transaction ()) in
    Alcotest.(check bool) "inside" true inside

  let test_nested_visibility () =
    let tv = S.tvar 0 in
    let observed =
      S.atomic (fun ctx ->
          S.write ctx tv 7;
          (* Child must see the parent's pending write. *)
          let from_child = S.atomic (fun ctx' -> S.read ctx' tv) in
          (* Child write must be visible to the parent afterwards. *)
          ignore (S.atomic (fun ctx' -> S.write ctx' tv 8));
          (from_child, S.read ctx tv))
    in
    Alcotest.(check (pair int int)) "nested visibility" (7, 8) observed;
    Alcotest.(check int) "nested commit value" 8 (S.peek tv)

  let test_nested_abort_rolls_back_all () =
    let tv = S.tvar 1 in
    (try
       S.atomic (fun ctx ->
           S.write ctx tv 2;
           ignore
             (S.atomic (fun ctx' ->
                  S.write ctx' tv 3;
                  failwith "inner"));
           ())
     with Failure _ -> ());
    Alcotest.(check int) "flat nesting: everything rolled back" 1 (S.peek tv)

  let test_elastic_mode_basics () =
    let tv = S.tvar 100 in
    let v =
      S.atomic ~mode:Stm_intf.Elastic (fun ctx ->
          let v = S.read ctx tv in
          S.write ctx tv (v + 1);
          S.read ctx tv)
    in
    Alcotest.(check int) "elastic read-after-write" 101 v;
    Alcotest.(check int) "elastic commit" 101 (S.peek tv)

  (* The paper's future-work direction — composing different relaxation
     types inside one TM — is already exercised by mode mixing: elastic
     and regular children must nest under either kind of parent. *)
  let test_mixed_mode_nesting () =
    let a = S.tvar 0 and b = S.tvar 0 in
    let result =
      S.atomic ~mode:Stm_intf.Elastic (fun ctx ->
          S.write ctx a 1;
          let from_regular_child =
            S.atomic ~mode:Stm_intf.Regular (fun ctx' ->
                S.write ctx' b (S.read ctx' a + 1);
                S.read ctx' b)
          in
          let from_elastic_child =
            S.atomic ~mode:Stm_intf.Elastic (fun ctx' -> S.read ctx' b + 10)
          in
          (from_regular_child, from_elastic_child))
    in
    Alcotest.(check (pair int int)) "children of both modes compose" (2, 12)
      result;
    Alcotest.(check (pair int int)) "committed once at the top" (1, 2)
      (S.peek a, S.peek b);
    let under_regular =
      S.atomic ~mode:Stm_intf.Regular (fun _ ->
          S.atomic ~mode:Stm_intf.Elastic (fun ctx' ->
              S.write ctx' a 5;
              S.read ctx' a))
    in
    Alcotest.(check int) "elastic child under regular parent" 5 under_regular;
    Alcotest.(check int) "committed" 5 (S.peek a)

  let test_deep_nesting () =
    let tv = S.tvar 0 in
    let depth = 6 in
    let rec go ctx n =
      if n = 0 then S.read ctx tv
      else
        S.atomic ~mode:(if n mod 2 = 0 then Stm_intf.Elastic else Stm_intf.Regular)
          (fun ctx' ->
            S.write ctx' tv (S.read ctx' tv + 1);
            go ctx' (n - 1))
    in
    let seen = S.atomic (fun ctx -> go ctx depth) in
    Alcotest.(check int) "all levels saw their increments" depth seen;
    Alcotest.(check int) "single atomic commit" depth (S.peek tv)

  let test_concurrent_counter () =
    let c = S.tvar 0 in
    let per_domain = 300 and n_domains = 4 in
    let work () =
      for _ = 1 to per_domain do
        S.atomic (fun ctx -> S.write ctx c (S.read ctx c + 1))
      done
    in
    let domains = List.init n_domains (fun _ -> Domain.spawn work) in
    List.iter Domain.join domains;
    Alcotest.(check int) "no lost increments" (n_domains * per_domain)
      (S.peek c)

  let test_concurrent_transfers_preserve_total () =
    (* Classic bank example: concurrent transfers between 8 accounts must
       preserve the sum. *)
    let accounts = Array.init 8 (fun _ -> S.tvar 100) in
    let transfer src dst amount =
      S.atomic (fun ctx ->
          let s = S.read ctx accounts.(src) in
          if s >= amount then begin
            S.write ctx accounts.(src) (s - amount);
            S.write ctx accounts.(dst) (S.read ctx accounts.(dst) + amount)
          end)
    in
    let work seed () =
      let st = ref (seed + 1) in
      let next bound =
        st := (!st * 25214903917 + 11) land max_int;
        !st mod bound
      in
      for _ = 1 to 200 do
        transfer (next 8) (next 8) (next 30)
      done
    in
    let domains = List.init 4 (fun i -> Domain.spawn (work i)) in
    List.iter Domain.join domains;
    let total = Array.fold_left (fun acc a -> acc + S.peek a) 0 accounts in
    Alcotest.(check int) "total preserved" 800 total

  let test_snapshot_consistency () =
    (* A transaction reading two locations updated together must never see
       them out of sync. *)
    let a = S.tvar 0 and b = S.tvar 0 in
    let violations = Atomic.make 0 in
    let writer =
      Domain.spawn (fun () ->
          for i = 1 to 500 do
            S.atomic (fun ctx ->
                S.write ctx a i;
                S.write ctx b i)
          done)
    in
    let reader =
      (* Fixed iteration count, not a stop flag: identical coverage on any
         machine speed; a torn snapshot is a violation whether or not the
         read overlaps the writer. *)
      Domain.spawn (fun () ->
          for _ = 1 to 600 do
            let x, y = S.atomic (fun ctx -> (S.read ctx a, S.read ctx b)) in
            if x <> y then ignore (Atomic.fetch_and_add violations 1)
          done)
    in
    Domain.join writer;
    Domain.join reader;
    Alcotest.(check int) "no torn snapshots" 0 (Atomic.get violations)

  let test_stats_move () =
    Stats.reset S.stats;
    let tv = S.tvar 0 in
    S.atomic (fun ctx -> S.write ctx tv 1);
    let snap = Stats.snapshot S.stats in
    Alcotest.(check bool) "at least one commit recorded" true
      (snap.Stats.commits >= 1)

  let suite =
    [ Alcotest.test_case "read/write/commit" `Quick test_read_write_commit;
      Alcotest.test_case "read-your-own-writes" `Quick
        test_read_your_own_writes;
      Alcotest.test_case "multi-location atomicity" `Quick test_multi_location;
      Alcotest.test_case "user exception aborts" `Quick
        test_user_exception_aborts;
      Alcotest.test_case "in_transaction" `Quick test_in_transaction;
      Alcotest.test_case "nested visibility" `Quick test_nested_visibility;
      Alcotest.test_case "nested abort rolls back" `Quick
        test_nested_abort_rolls_back_all;
      Alcotest.test_case "elastic mode basics" `Quick test_elastic_mode_basics;
      Alcotest.test_case "mixed-mode nesting" `Quick test_mixed_mode_nesting;
      Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
      Alcotest.test_case "stats record commits" `Quick test_stats_move;
      Alcotest.test_case "concurrent counter" `Slow test_concurrent_counter;
      Alcotest.test_case "concurrent transfers" `Slow
        test_concurrent_transfers_preserve_total;
      Alcotest.test_case "snapshot consistency" `Slow test_snapshot_consistency
    ]
end

module Tl2_battery = Battery (Classic_stm.Tl2)
module Lsa_battery = Battery (Classic_stm.Lsa)
module Swiss_battery = Battery (Classic_stm.Swisstm)
module Oe_battery = Battery (Oestm.Oe)
module Ebroken_battery = Battery (Oestm.E_broken)

(* The policy table of the seven tvar instances, one row each: whether the
   first write takes the tvar's lock at once (eager locking), and whether a
   read of a version committed after the transaction began extends the
   snapshot (one attempt) or aborts with [Read_too_new] (TL2). *)
module type TVAR_STM = Stm_intf.S with type 'a tvar = 'a Tvar.t

let policy_rows : ((module TVAR_STM) * bool * bool) list =
  (* (instance, eager lock, extends on a too-new read) *)
  [ ((module Classic_stm.Tl2), false, false);
    ((module Classic_stm.Lsa), true, true);
    ((module Classic_stm.Swisstm), true, true);
    ((module Oestm.Oe), false, true);
    ((module Oestm.E_broken), false, true);
    ((module Oestm.Oe_window1), false, true);
    ((module Oestm.View), false, true) ]

let too_new_aborts (module S : TVAR_STM) =
  Option.value ~default:0
    (List.assoc_opt Control.Read_too_new
       (Stats.snapshot S.stats).Stats.by_reason)

let test_policy_table () =
  List.iter
    (fun ((module S : TVAR_STM) as stm, eager, extends) ->
      let tv = S.tvar 0 in
      let held =
        S.atomic (fun ctx ->
            S.write ctx tv 1;
            Vlock.locked (Vlock.stamp tv.Tvar.lock))
      in
      Alcotest.(check bool) (S.name ^ ": lock held after first write") eager
        held;
      (* Another engine commits a write to [tv] inside the transaction's
         first attempt, before the transaction reads it. *)
      let (module W : TVAR_STM) =
        if S.name = Oestm.Oe.name then (module Classic_stm.Tl2 : TVAR_STM)
        else (module Oestm.Oe)
      in
      let attempts = ref 0 in
      let aborts0 = too_new_aborts stm in
      let seen =
        S.atomic (fun ctx ->
            incr attempts;
            if !attempts = 1 then W.atomic (fun c -> W.write c tv 2);
            S.read ctx tv)
      in
      Alcotest.(check int) (S.name ^ ": reads the foreign commit") 2 seen;
      if extends then
        Alcotest.(check int) (S.name ^ ": commits in one attempt") 1 !attempts
      else
        Alcotest.(check bool)
          (S.name ^ ": aborts on the too-new read") true
          (too_new_aborts stm > aborts0 && !attempts >= 2))
    policy_rows

(* A too-new read extends the snapshot to the clock value loaded after the
   read, so the rescan must cover that read itself.  Another engine commits
   [a, b := 1, 1] before the first read, then [a, b := 2, 2] at the
   extension's clock load (the traced [Clock.now]); the reader must not
   return the old [b] with the new [a]. *)
let test_extension_covers_its_read () =
  List.iter
    (fun ((module S : TVAR_STM), _, _) ->
      let (module W : TVAR_STM) =
        if S.name = Oestm.Oe.name then (module Classic_stm.Tl2 : TVAR_STM)
        else (module Oestm.Oe)
      in
      let a = S.tvar 0 and b = S.tvar 0 in
      let commit v = W.atomic (fun c -> W.write c a v; W.write c b v) in
      let armed = ref false and attempts = ref 0 in
      let hook = function
        | Runtime.Read pe when !armed && pe = Runtime.clock_pe ->
          armed := false;
          commit 2
        | _ -> ()
      in
      let saved = Runtime.save_plane () in
      Runtime.plane.trace <- Some hook;
      let seen =
        Fun.protect
          ~finally:(fun () -> Runtime.restore_plane saved)
          (fun () ->
            S.atomic (fun ctx ->
                incr attempts;
                if !attempts = 1 then begin
                  commit 1;
                  armed := true
                end;
                let y = S.read ctx b in
                let x = S.read ctx a in
                (x, y)))
      in
      Alcotest.(check (pair int int)) (S.name ^ ": one snapshot") (2, 2) seen)
    policy_rows

let suites =
  [ ("stm:policy",
     [ Alcotest.test_case "policy table of the seven tvar instances" `Quick
         test_policy_table;
       Alcotest.test_case "an extension revalidates the read behind it"
         `Quick test_extension_covers_its_read ]);
    ("stm:TL2", Tl2_battery.suite);
    ("stm:LSA", Lsa_battery.suite);
    ("stm:SwissTM", Swiss_battery.suite);
    ("stm:OE-STM", Oe_battery.suite);
    ("stm:E-STM(drop)", Ebroken_battery.suite) ]
