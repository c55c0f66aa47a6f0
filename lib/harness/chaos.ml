(** Chaos testing: model checks under deterministic fault injection.

    For each engine (OE-STM, TL2, View-STM, boosting) and each seed, random
    schedules from the deterministic scheduler run a small transfer
    workload while {!Stm_core.Faults} injects spurious aborts, lock-acquire
    failures, validation failures and delays.  Three properties are
    checked, per schedule:

    - {b isolation}: every transaction that reads all cells sees the
      conserved total — a torn read under faults is a safety violation;
    - {b conservation}: after all processes finish, the cells still sum to
      the preloaded total;
    - {b no escaping exceptions}: under the default configuration no
      process may end with {!Stm_core.Control.Starvation} (or anything
      else) — the serial-irrevocable fallback must absorb livelocks.

    A dedicated high-rate scenario drives every engine into the fallback
    (retry cap 1, near-certain injected aborts), so a chaos run also proves
    the escalation path commits.  Finally a multi-domain stress run checks
    conservation under real parallelism with faults enabled.

    The module is shared by the [chaos] test suite and [bin/chaos.exe]
    (which emits the JSON report CI archives). *)

open Stm_core
open Schedsim

[@@@txlint.allow "stm-escape"
    "the chaos driver peeks committed state between scheduler steps and \
     after runs, never inside a transaction"]

[@@@txlint.allow "crash-swallowed"
    "the chaos driver injected the crashes; it alone absorbs them to \
     keep exploring schedules"]

[@@@txlint.allow "catch-all"
    "the crash-restart child worker runs between [fork] and [SIGKILL]: \
     any exception there must turn into [Unix._exit], never escape into \
     a duplicated parent stack"]

type engine = OE | TL2 | View | Boost

let all_engines = [ OE; TL2; View; Boost ]

let engine_name = function
  | OE -> "OE-STM"
  | TL2 -> "TL2"
  | View -> "View-STM"
  | Boost -> "boosting"

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "oe" | "oe-stm" | "oestm" -> OE
  | "tl2" -> TL2
  | "view" | "view-stm" | "viewstm" -> View
  | "boost" | "boosting" -> Boost
  | _ -> invalid_arg ("Chaos.engine_of_string: unknown engine " ^ s)

(* Default chaos rates: every fault kind enabled, none so hot that honest
   work cannot get through optimistically most of the time. *)
let default_faults =
  { Faults.default with
    Faults.spurious_abort = 0.02;
    lock_fail = 0.05;
    validation_fail = 0.05;
    delay = 0.02;
    max_delay_spins = 8 }

type engine_result = {
  engine : string;
  seeds : int list;
  runs_per_seed : int;
  schedules : int;       (** sampled schedules actually executed *)
  failed_seeds : int list;  (** seeds with at least one failing schedule *)
  stress_ok : bool;      (** multi-domain conservation held *)
  stats : Stats.snapshot;   (** engine stats over the whole chaos run *)
  injected : (Faults.kind * int) list;  (** faults injected, by kind *)
  san_violations : int;
      (** sanitizer violations recorded during this engine's run; 0 when
          the sanitizer is off (schedule exploration is simulated and thus
          exempt — only the multi-domain stress run is sanitized) *)
}

let ok r = r.failed_seeds = [] && r.stress_ok && r.san_violations = 0

(* ------------------------------------------------------------------ *)
(* Domain-kill scenario                                                *)

(** Result of one {!run_kill}: killer domains crash mid-commit holding
    locks; survivor domains then run a contending workload.  With
    recovery on the survivors must keep committing (orphaned locks are
    reclaimed); with recovery off the same scenario must wedge — every
    survivor that trips over an orphaned lock times out. *)
type kill_result = {
  k_engine : string;
  k_recovery : bool;
  k_lease_ns : int;
  k_killers : int;       (** domains crashed mid-commit *)
  k_survivors : int;     (** domains run after the crashes *)
  k_txns : int;          (** transactions attempted per survivor *)
  k_commits : int;       (** survivor transactions that committed *)
  k_conserved : bool;    (** invariant held on the final state *)
  k_wedged : bool;       (** some survivor hit {!Control.Timeout} *)
  k_crashes : int;       (** [Crash_domain] faults that actually fired *)
  k_orphan_steals : int;
  k_lease_expiries : int;
  k_poisoned_commits : int;
  k_san_violations : int;
}

(** The pass criterion flips with the recovery switch: recovery on means
    progress (no wedge, survivors committed), recovery off means the
    wedge is demonstrated.  Both directions require at least one crash to
    have fired, the data invariant to hold, and a clean sanitizer. *)
let kill_ok r =
  r.k_crashes >= 1 && r.k_conserved && r.k_san_violations = 0
  && (if r.k_recovery then (not r.k_wedged) && r.k_commits > 0
      else r.k_wedged)

(* ------------------------------------------------------------------ *)
(* Scenarios for tvar-based engines                                    *)

module Stm_chaos (S : Stm_intf.S) = struct
  let cells = 4
  let preload = 100
  let total = cells * preload

  (* Two processes, two transfers each.  Each transfer reads every cell
     (isolation check), then moves one unit between two of them. *)
  let scenario () =
    let slot = ref (fun () -> true) in
    { Explore.procs =
        (fun () ->
          let tvs = Array.init cells (fun _ -> S.tvar preload) in
          let torn = ref false in
          slot :=
            (fun () ->
              (not !torn)
              && Array.fold_left (fun a tv -> a + S.peek tv) 0 tvs = total);
          let proc i () =
            for j = 0 to 1 do
              let a = (i + j) mod cells in
              let b = (a + 1 + i) mod cells in
              let sum =
                S.atomic (fun ctx ->
                    let vals = Array.map (fun tv -> S.read ctx tv) tvs in
                    let s = Array.fold_left ( + ) 0 vals in
                    if a <> b then begin
                      S.write ctx tvs.(a) (vals.(a) - 1);
                      S.write ctx tvs.(b) (vals.(b) + 1)
                    end;
                    s)
              in
              if sum <> total then torn := true
            done
          in
          [ proc 0; proc 1 ]);
      check =
        (fun outcome ->
          match outcome.Sched.failures with
          | _ :: _ -> false  (* nothing may escape, Starvation included *)
          | [] -> if Sched.completed outcome then (!slot) () else true) }

  (* One process, retry cap 1, near-certain injected aborts: the only way
     to finish is through the serial fallback. *)
  let fallback_scenario () =
    let slot = ref (fun () -> true) in
    { Explore.procs =
        (fun () ->
          let tv = S.tvar 0 in
          slot := (fun () -> S.peek tv = 1);
          [ (fun () ->
              S.atomic (fun ctx -> S.write ctx tv (S.read ctx tv + 1))) ])
      ;
      check =
        (fun outcome ->
          match outcome.Sched.failures with
          | _ :: _ -> false
          | [] -> if Sched.completed outcome then (!slot) () else true) }

  let sample_seed ~runs ~seed =
    let sc = scenario () in
    let r1 =
      Explore.sample ~runs ~retry_cap:8 ~starvation_mode:`Fallback ~seed sc
    in
    let hot = { default_faults with Faults.spurious_abort = 0.9; seed } in
    Faults.enable hot;
    let r2 =
      Fun.protect
        ~finally:(fun () -> Faults.enable { default_faults with Faults.seed })
        (fun () ->
          Explore.sample ~runs:2 ~retry_cap:1 ~starvation_mode:`Fallback ~seed
            (fallback_scenario ()))
    in
    (r1, r2)

  (* Real-domain stress: [domains] workers, [txns] transfers each over a
     shared array; the total is conserved iff every transfer was atomic. *)
  let stress ~domains ~txns =
    let n = 8 in
    let tvs = Array.init n (fun _ -> S.tvar preload) in
    let worker d () =
      for j = 1 to txns do
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
    let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
    List.iter Domain.join ds;
    Array.fold_left (fun a tv -> a + S.peek tv) 0 tvs = n * preload

  (* Domain-kill: each killer reads and rewrites the two cells of its
     private band, and an armed fault crashes it at the 7th schedule
     point.  The killer transaction costs read, write, read, write (four
     points), one commit point, then one lock point per write-set entry —
     all three tvar engines lock lazily at commit through
     [Wset.lock_all], so the count is engine-independent.  Point 7 is the
     second lock point, which fires {e before} the acquisition attempt:
     the domain dies holding exactly one write lock (its band's lower
     cell), pre-install, so cell values are untouched and conservation is
     trivially preserved.  Bands are disjoint, so concurrent killers
     cannot perturb each other's point arithmetic. *)
  let kill_stress ~killers ~survivors ~txns ~recovery ~lease_ns =
    let n = 8 in
    let killers = max 1 (min killers (n / 2)) in
    let tvs = Array.init n (fun _ -> S.tvar preload) in
    let saved_timeout = !Runtime.tx_timeout_ns in
    if recovery then Recovery.enable ~lease_ns ();
    (* The timeout is the wedge detector: a survivor blocked on an
       orphaned lock with no recovery must surface as [Control.Timeout]
       rather than hang the test. *)
    Runtime.tx_timeout_ns := Some 300_000_000;
    Fun.protect
      ~finally:(fun () ->
        Runtime.tx_timeout_ns := saved_timeout;
        if recovery then Recovery.disable ();
        Faults.disable ())
      (fun () ->
        let killer k () =
          Faults.arm_crash_after ~points:7;
          try
            S.atomic (fun ctx ->
                let a = 2 * k and b = (2 * k) + 1 in
                S.write ctx tvs.(a) (S.read ctx tvs.(a));
                S.write ctx tvs.(b) (S.read ctx tvs.(b)))
          with Control.Crashed -> ()
        in
        let kds = List.init killers (fun k -> Domain.spawn (killer k)) in
        List.iter Domain.join kds;
        (* Survivors transfer across all cells, so every one of them walks
           into the orphaned locks within its first few transactions. *)
        let commits = Atomic.make 0 in
        let wedged = Atomic.make false in
        let survivor d () =
          try
            for j = 1 to txns do
              if not (Atomic.get wedged) then begin
                let a = (d + j) mod n in
                let b = (a + 1 + (j mod (n - 1))) mod n in
                if a <> b then begin
                  S.atomic (fun ctx ->
                      let va = S.read ctx tvs.(a) in
                      let vb = S.read ctx tvs.(b) in
                      S.write ctx tvs.(a) (va - 1);
                      S.write ctx tvs.(b) (vb + 1));
                  Atomic.incr commits
                end
              end
            done
          with Control.Timeout _ -> Atomic.set wedged true
        in
        let ds = List.init survivors (fun d -> Domain.spawn (survivor d)) in
        List.iter Domain.join ds;
        let conserved =
          Array.fold_left (fun a tv -> a + S.peek tv) 0 tvs = n * preload
        in
        (Atomic.get commits, conserved, Atomic.get wedged))

  let run ~seeds ~runs_per_seed ~stress_domains ~stress_txns =
    Stats.reset S.stats;
    Faults.reset_counts ();
    let san0 = Sanitizer.violation_count () in
    let failed = ref [] in
    let schedules = ref 0 in
    List.iter
      (fun seed ->
        Faults.enable { default_faults with Faults.seed };
        let r1, r2 =
          Fun.protect ~finally:Faults.disable (fun () ->
              sample_seed ~runs:runs_per_seed ~seed)
        in
        let count = function
          | Explore.All_ok { explored; _ } ->
            schedules := !schedules + explored;
            true
          | Explore.Out_of_budget { explored; _ } ->
            schedules := !schedules + explored;
            true
          | Explore.Violation { explored; _ } ->
            schedules := !schedules + explored;
            false
        in
        let ok1 = count r1 in
        let ok2 = count r2 in
        if not (ok1 && ok2) then failed := seed :: !failed)
      seeds;
    let stress_ok =
      Faults.enable { default_faults with Faults.seed = List.nth seeds 0 };
      Fun.protect ~finally:Faults.disable (fun () ->
          stress ~domains:stress_domains ~txns:stress_txns)
    in
    { engine = S.name;
      seeds;
      runs_per_seed;
      schedules = !schedules;
      failed_seeds = List.rev !failed;
      stress_ok;
      stats = Stats.snapshot S.stats;
      injected = Faults.counts ();
      san_violations = Sanitizer.violation_count () - san0 }
end

(* ------------------------------------------------------------------ *)
(* Boosting scenario                                                   *)

module Boost_chaos = struct
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

  (* One process inserts pairs atomically; the other must never observe
     half a pair.  Conservation: both pairs complete in the end. *)
  let scenario () =
    let slot = ref (fun () -> true) in
    { Explore.procs =
        (fun () ->
          let s = BSet.create ~stripes:4 () in
          let half_pair = ref false in
          slot :=
            (fun () ->
              (not !half_pair)
              && BSet.contains s 0 && BSet.contains s 1 && BSet.contains s 2
              && BSet.contains s 3);
          [ (fun () ->
              ignore (BSet.add_all s [ 0; 1 ]);
              ignore (BSet.add_all s [ 2; 3 ]));
            (fun () ->
              for _ = 1 to 2 do
                let seen =
                  Boosting.atomic (fun _ ->
                      (Bool.to_int (BSet.contains s 0), Bool.to_int (BSet.contains s 1)))
                in
                match seen with
                | 1, 0 | 0, 1 -> half_pair := true
                | _ -> ()
              done) ]);
      check =
        (fun outcome ->
          match outcome.Sched.failures with
          | _ :: _ -> false
          | [] -> if Sched.completed outcome then (!slot) () else true) }

  let fallback_scenario () =
    let slot = ref (fun () -> true) in
    { Explore.procs =
        (fun () ->
          let s = BSet.create ~stripes:2 () in
          slot := (fun () -> BSet.contains s 7);
          [ (fun () -> ignore (BSet.add s 7)) ]);
      check =
        (fun outcome ->
          match outcome.Sched.failures with
          | _ :: _ -> false
          | [] -> if Sched.completed outcome then (!slot) () else true) }

  let sample_seed ~runs ~seed =
    let r1 =
      Explore.sample ~runs ~retry_cap:8 ~starvation_mode:`Fallback ~seed
        (scenario ())
    in
    let hot = { default_faults with Faults.spurious_abort = 0.9; seed } in
    Faults.enable hot;
    let r2 =
      Fun.protect
        ~finally:(fun () -> Faults.enable { default_faults with Faults.seed })
        (fun () ->
          Explore.sample ~runs:2 ~retry_cap:1 ~starvation_mode:`Fallback ~seed
            (fallback_scenario ()))
    in
    (r1, r2)

  let stress ~domains ~txns =
    let s = BSet.create () in
    let worker d () =
      for i = 0 to txns - 1 do
        let base = 2 * ((d * txns) + i) in
        ignore (BSet.add_all s [ base; base + 1 ])
      done
    in
    let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
    List.iter Domain.join ds;
    let ok = ref true in
    for d = 0 to domains - 1 do
      for i = 0 to txns - 1 do
        let base = 2 * ((d * txns) + i) in
        if not (BSet.contains s base && BSet.contains s (base + 1)) then
          ok := false
      done
    done;
    !ok

  let n_stripes = 8

  (* Stripe placement must be deterministic, and [Boost.lock_for] is
     [K.hash k mod stripes]: replicate it to aim keys at chosen stripes. *)
  let stripe_of key = Seqds.Int_key.hash key mod n_stripes

  (* First key at or above [start] that lands on [stripe]. *)
  let key_on_stripe ~start stripe =
    let k = ref start in
    while stripe_of !k <> stripe do incr k done;
    !k

  (* Domain-kill for boosting.  Each killer inserts a two-key pair whose
     keys land on its private pair of stripes; boosting fires one schedule
     point per {e fresh} abstract-lock acquisition (the reentrant fast
     path has none), and the point fires before the acquisition attempt,
     so [points = 2] crashes the killer holding exactly its first stripe
     lock.  The first key is already in the set — boosting applies
     operations eagerly and the crashed transaction's undo log dies with
     it (the lost-undo limitation DESIGN.md 5h documents) — so the
     conservation check covers survivor keys only, from a disjoint
     range. *)
  let kill_stress ~killers ~survivors ~txns ~recovery ~lease_ns =
    let killers = max 1 (min killers (n_stripes / 2)) in
    let s = BSet.create ~stripes:n_stripes () in
    let saved_timeout = !Runtime.tx_timeout_ns in
    if recovery then Recovery.enable ~lease_ns ();
    Runtime.tx_timeout_ns := Some 300_000_000;
    Fun.protect
      ~finally:(fun () ->
        Runtime.tx_timeout_ns := saved_timeout;
        if recovery then Recovery.disable ();
        Faults.disable ())
      (fun () ->
        let killer k () =
          let ka = key_on_stripe ~start:0 (2 * k) in
          let kb = key_on_stripe ~start:0 ((2 * k) + 1) in
          Faults.arm_crash_after ~points:2;
          try ignore (BSet.add_all s [ ka; kb ])
          with Control.Crashed -> ()
        in
        let kds = List.init killers (fun k -> Domain.spawn (killer k)) in
        List.iter Domain.join kds;
        (* Each survivor aims successive inserts at successive stripes
           from a private key range, so all of them hit the orphaned
           stripes within their first [n_stripes] operations. *)
        let commits = Atomic.make 0 in
        let wedged = Atomic.make false in
        let done_counts = Array.make survivors 0 in
        let survivor d () =
          let cursor = ref (10_000 * (d + 1)) in
          try
            for i = 0 to txns - 1 do
              if not (Atomic.get wedged) then begin
                let key = key_on_stripe ~start:!cursor (i mod n_stripes) in
                cursor := key + 1;
                ignore (BSet.add s key);
                done_counts.(d) <- done_counts.(d) + 1;
                Atomic.incr commits
              end
            done
          with Control.Timeout _ -> Atomic.set wedged true
        in
        let ds = List.init survivors (fun d -> Domain.spawn (survivor d)) in
        List.iter Domain.join ds;
        (* Read back every key the survivors reported committed.  Reading
           is itself transactional, so it only runs when nothing wedged —
           against orphaned stripes it would just wedge again. *)
        let conserved =
          Atomic.get wedged
          ||
          let ok = ref true in
          for d = 0 to survivors - 1 do
            let cursor = ref (10_000 * (d + 1)) in
            for i = 0 to done_counts.(d) - 1 do
              let key = key_on_stripe ~start:!cursor (i mod n_stripes) in
              cursor := key + 1;
              if not (BSet.contains s key) then ok := false
            done
          done;
          !ok
        in
        (Atomic.get commits, conserved, Atomic.get wedged))

  let run ~seeds ~runs_per_seed ~stress_domains ~stress_txns =
    Stats.reset Boosting.stats;
    Faults.reset_counts ();
    let san0 = Sanitizer.violation_count () in
    let failed = ref [] in
    let schedules = ref 0 in
    List.iter
      (fun seed ->
        Faults.enable { default_faults with Faults.seed };
        let r1, r2 =
          Fun.protect ~finally:Faults.disable (fun () ->
              sample_seed ~runs:runs_per_seed ~seed)
        in
        let count = function
          | Explore.All_ok { explored; _ } | Explore.Out_of_budget { explored; _ }
            ->
            schedules := !schedules + explored;
            true
          | Explore.Violation { explored; _ } ->
            schedules := !schedules + explored;
            false
        in
        let ok1 = count r1 in
        let ok2 = count r2 in
        if not (ok1 && ok2) then failed := seed :: !failed)
      seeds;
    let stress_ok =
      Faults.enable { default_faults with Faults.seed = List.nth seeds 0 };
      Fun.protect ~finally:Faults.disable (fun () ->
          stress ~domains:stress_domains ~txns:stress_txns)
    in
    { engine = "boosting";
      seeds;
      runs_per_seed;
      schedules = !schedules;
      failed_seeds = List.rev !failed;
      stress_ok;
      stats = Stats.snapshot Boosting.stats;
      injected = Faults.counts ();
      san_violations = Sanitizer.violation_count () - san0 }
end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

module Oe_chaos = Stm_chaos (Oestm.Oe)
module Tl2_chaos = Stm_chaos (Classic_stm.Tl2)
module View_chaos = Stm_chaos (Viewstm.V)

let default_seeds = List.init 20 (fun i -> i + 1)

let run_engine ?(seeds = default_seeds) ?(runs_per_seed = 30)
    ?(stress_domains = 4) ?(stress_txns = 200) engine =
  if seeds = [] then invalid_arg "Chaos.run_engine: empty seed list";
  let run =
    match engine with
    | OE -> Oe_chaos.run
    | TL2 -> Tl2_chaos.run
    | View -> View_chaos.run
    | Boost -> Boost_chaos.run
  in
  run ~seeds ~runs_per_seed ~stress_domains ~stress_txns

let run_all ?seeds ?runs_per_seed ?stress_domains ?stress_txns () =
  List.map
    (fun e -> run_engine ?seeds ?runs_per_seed ?stress_domains ?stress_txns e)
    all_engines

(** The chaos scenarios' heartbeat lease (10 ms): well under the 300 ms
    wedge timeout, so that with recovery on the survivors reclaim orphaned
    locks long before they would time out. *)
let default_lease_ns = 10_000_000

(* Recovery counters are process-global (steal sites live below the engine
   instances), so [run_kill] resets and snapshots them around one run. *)
let run_kill ?(killers = 2) ?(survivors = 3) ?(txns = 64)
    ?(lease_ns = default_lease_ns) ~recovery engine =
  Faults.reset_counts ();
  Stats.reset_recovery_counters ();
  let san0 = Sanitizer.violation_count () in
  let kill =
    match engine with
    | OE -> Oe_chaos.kill_stress
    | TL2 -> Tl2_chaos.kill_stress
    | View -> View_chaos.kill_stress
    | Boost -> Boost_chaos.kill_stress
  in
  let commits, conserved, wedged =
    kill ~killers ~survivors ~txns ~recovery ~lease_ns
  in
  let rc = Stats.recovery_counters () in
  { k_engine = engine_name engine;
    k_recovery = recovery;
    k_lease_ns = lease_ns;
    k_killers = killers;
    k_survivors = survivors;
    k_txns = txns;
    k_commits = commits;
    k_conserved = conserved;
    k_wedged = wedged;
    k_crashes = Faults.count Faults.Crash_domain;
    k_orphan_steals = rc.Stats.orphan_steals;
    k_lease_expiries = rc.Stats.lease_expiries;
    k_poisoned_commits = rc.Stats.poisoned_commits;
    k_san_violations = Sanitizer.violation_count () - san0 }

(** One engine, both directions: recovery on must make progress, recovery
    off must wedge. *)
let run_kill_both ?killers ?survivors ?txns ?lease_ns engine =
  let on = run_kill ?killers ?survivors ?txns ?lease_ns ~recovery:true engine in
  let off =
    run_kill ?killers ?survivors ?txns ?lease_ns ~recovery:false engine
  in
  (on, off)

(* ------------------------------------------------------------------ *)
(* Crash-restart scenario (kill -9 + WAL recovery)                     *)

(** Result of one {!run_restart}: for each seed a forked child worker
    runs durable transfers against a fresh write-ahead log and is
    SIGKILLed mid-commit at a seed-derived moment; the parent then
    recovers the log into fresh ptvars and checks {e conservation} (the
    transfer invariant holds on the recovered state) and {e prefix
    durability} (every record the child saw acknowledged as synced is
    replayed).  With [rr_sync_every <= 0] the WAL never syncs — the
    negative control — and the run must instead {e demonstrate} loss:
    at least one seed recovers fewer records than the child committed. *)
type restart_result = {
  rr_engine : string;
  rr_sync_every : int;
  rr_seeds : int list;
  rr_failed_seeds : int list;
      (** conservation broke, the child died on its own, or (sync on) a
          synced record did not survive recovery *)
  rr_commits : int;      (** transfers the children reported committed *)
  rr_acked : int;        (** records synced to disk at kill time *)
  rr_recovered : int;    (** intact update records replayed *)
  rr_torn_seeds : int;   (** seeds whose log had a torn tail truncated *)
  rr_lost_acked_seeds : int list;
      (** seeds that recovered fewer records than were acked as synced *)
  rr_lost_commit_seeds : int list;
      (** seeds that recovered fewer records than the child committed —
          expected (and required) under the no-sync negative control *)
}

(** Sync on: nothing acked may be lost.  Sync off: loss must show. *)
let restart_ok r =
  r.rr_failed_seeds = [] && r.rr_commits > 0
  && (if r.rr_sync_every > 0 then r.rr_lost_acked_seeds = []
      else r.rr_lost_commit_seeds <> [])

module Restart = struct
  let cells = 4
  let preload = 100
  let total = cells * preload

  let fresh_ptvars () =
    Array.init cells (fun i ->
        Persist.Ptvar.make ~id:i ~codec:Persist.Codec.int preload)

  (* Drain the child's progress pipe until [deadline], then to EOF after
     the kill; the last complete 16-byte frame is the child's final
     report.  A frame torn by the kill is simply ignored. *)
  let last_frame buf =
    let s = Buffer.contents buf in
    let frames = String.length s / 16 in
    if frames = 0 then (0, 0)
    else
      let off = (frames - 1) * 16 in
      ( Int64.to_int (String.get_int64_le s off),
        Int64.to_int (String.get_int64_le s (off + 8)) )

  let drain_until rd buf deadline =
    let chunk = Bytes.create 4096 in
    let rec go () =
      let left = deadline -. Unix.gettimeofday () in
      if left > 0.0 then
        match Unix.select [ rd ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
          match Unix.read rd chunk 0 (Bytes.length chunk) with
          | 0 -> ()  (* EOF: the child died early; the kill is a no-op *)
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
    in
    go ()

  let drain_eof rd buf =
    let chunk = Bytes.create 4096 in
    let rec go () =
      match Unix.read rd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()

  type seed_outcome = {
    so_commits : int;
    so_acked : int;
    so_recovered : int;
    so_conserved : bool;
    so_torn : bool;
    so_child_ok : bool;  (** the child was killed, not crashed *)
  }

  module Run (S : Stm_intf.S with type 'a tvar = 'a Tvar.t) = struct
    (* The child: durable transfers forever, reporting (commits, acked)
       over the pipe after every commit, until SIGKILL lands.  Runs in a
       forked process, so it must end in [Unix._exit] on every path. *)
    let child ~sync_every ~path ~seed wr =
      (try
         Persist.reset_for_testing ();
         let ptvs = fresh_ptvars () in
         Persist.enable ~sync_every ~path ();
         let rng = Prng.create ~seed in
         let frame = Bytes.create 16 in
         let commits = ref 0 in
         while true do
           let a = Prng.int rng cells in
           let b = (a + 1 + Prng.int rng (cells - 1)) mod cells in
           S.atomic (fun ctx ->
               let tva = Persist.Ptvar.tvar ptvs.(a) in
               let tvb = Persist.Ptvar.tvar ptvs.(b) in
               S.write ctx tva (S.read ctx tva - 1);
               S.write ctx tvb (S.read ctx tvb + 1));
           incr commits;
           Bytes.set_int64_le frame 0 (Int64.of_int !commits);
           Bytes.set_int64_le frame 8
             (Int64.of_int (Persist.acked_records ()));
           ignore (Unix.write wr frame 0 16)
         done
       with _ -> ());
      Unix._exit 0

    (* One seed: fork, let the child commit for a seed-derived 10..60 ms,
       SIGKILL it, recover the log in this process, judge the result. *)
    let run_seed ~sync_every ~path ~seed =
      (try Sys.remove path with Sys_error _ -> ());
      let rd, wr = Unix.pipe () in
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 ->
        Unix.close rd;
        child ~sync_every ~path ~seed wr
      | pid ->
        Unix.close wr;
        let kill_after_ms = 10 + (Prng.next (Prng.create ~seed) mod 51) in
        let buf = Buffer.create 4096 in
        drain_until rd buf
          (Unix.gettimeofday () +. (float_of_int kill_after_ms /. 1000.0));
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        let _, status = Unix.waitpid [] pid in
        drain_eof rd buf;
        Unix.close rd;
        let commits, acked = last_frame buf in
        Persist.reset_for_testing ();
        let ptvs = fresh_ptvars () in
        let s = Persist.recover ~path () in
        let sum =
          Array.fold_left (fun a p -> a + Persist.Ptvar.value p) 0 ptvs
        in
        Persist.reset_for_testing ();
        { so_commits = commits;
          so_acked = acked;
          so_recovered = s.Persist.updates_intact;
          so_conserved = sum = total;
          so_torn = s.Persist.truncated;
          so_child_ok =
            (match status with
            | Unix.WSIGNALED sg -> sg = Sys.sigkill
            | _ -> false) }
  end

  module Oe_run = Run (Oestm.Oe)
  module Tl2_run = Run (Classic_stm.Tl2)
  module View_run = Run (Viewstm.V)

  (* Boosting has no tvar write set; its durable path (an explicit op
     log) is exercised by the persist unit tests instead. *)
  let run_seed_for = function
    | OE -> Oe_run.run_seed
    | TL2 -> Tl2_run.run_seed
    | View -> View_run.run_seed
    | Boost ->
      invalid_arg "Chaos.run_restart: boosting has no tvar write set"
end

let run_restart ?(seeds = default_seeds) ?(sync_every = 1)
    ?(wal_path = Filename.concat (Filename.get_temp_dir_name ())
                   (Printf.sprintf "chaos-restart-%d.wal" (Unix.getpid ())))
    engine =
  if Sys.win32 then invalid_arg "Chaos.run_restart: requires fork(2)";
  if seeds = [] then invalid_arg "Chaos.run_restart: empty seed list";
  let run_seed = Restart.run_seed_for engine in
  let failed = ref [] and lost_acked = ref [] and lost_commits = ref [] in
  let commits = ref 0 and acked = ref 0 and recovered = ref 0 in
  let torn = ref 0 in
  List.iter
    (fun seed ->
      let o = run_seed ~sync_every ~path:wal_path ~seed in
      commits := !commits + o.Restart.so_commits;
      acked := !acked + o.Restart.so_acked;
      recovered := !recovered + o.Restart.so_recovered;
      if o.Restart.so_torn then incr torn;
      let lost_ack = o.Restart.so_recovered < o.Restart.so_acked in
      if lost_ack then lost_acked := seed :: !lost_acked;
      if o.Restart.so_recovered < o.Restart.so_commits then
        lost_commits := seed :: !lost_commits;
      if
        (not o.Restart.so_conserved)
        || (not o.Restart.so_child_ok)
        || (sync_every > 0 && lost_ack)
      then failed := seed :: !failed)
    seeds;
  (try Sys.remove wal_path with Sys_error _ -> ());
  { rr_engine = engine_name engine;
    rr_sync_every = sync_every;
    rr_seeds = seeds;
    rr_failed_seeds = List.rev !failed;
    rr_commits = !commits;
    rr_acked = !acked;
    rr_recovered = !recovered;
    rr_torn_seeds = !torn;
    rr_lost_acked_seeds = List.rev !lost_acked;
    rr_lost_commit_seeds = List.rev !lost_commits }

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)

let engine_to_json (r : engine_result) =
  Report.Obj
    [ ("engine", Report.Str r.engine);
      ("seeds", Report.List (List.map (fun s -> Report.Int s) r.seeds));
      ("runs_per_seed", Report.Int r.runs_per_seed);
      ("schedules", Report.Int r.schedules);
      ("ok", Report.Bool (ok r));
      ( "failed_seeds",
        Report.List (List.map (fun s -> Report.Int s) r.failed_seeds) );
      ("stress_ok", Report.Bool r.stress_ok);
      ("commits", Report.Int r.stats.Stats.commits);
      ("aborts", Report.Int r.stats.Stats.aborts);
      ("starvations", Report.Int r.stats.Stats.starvations);
      ("fallbacks", Report.Int r.stats.Stats.fallbacks);
      ("timeouts", Report.Int r.stats.Stats.timeouts);
      ("san_violations", Report.Int r.san_violations);
      ( "injected",
        Report.Obj
          (List.map
             (fun (k, n) -> (Faults.kind_name k, Report.Int n))
             r.injected) ) ]

let kill_to_json (r : kill_result) =
  Report.Obj
    [ ("engine", Report.Str r.k_engine);
      ("recovery", Report.Bool r.k_recovery);
      ("lease_ns", Report.Int r.k_lease_ns);
      ("killers", Report.Int r.k_killers);
      ("survivors", Report.Int r.k_survivors);
      ("txns_per_survivor", Report.Int r.k_txns);
      ("ok", Report.Bool (kill_ok r));
      ("survivor_commits", Report.Int r.k_commits);
      ("conserved", Report.Bool r.k_conserved);
      ("wedged", Report.Bool r.k_wedged);
      ("crashes", Report.Int r.k_crashes);
      ("orphan_steals", Report.Int r.k_orphan_steals);
      ("lease_expiries", Report.Int r.k_lease_expiries);
      ("poisoned_commits", Report.Int r.k_poisoned_commits);
      ("san_violations", Report.Int r.k_san_violations) ]

let restart_to_json (r : restart_result) =
  Report.Obj
    [ ("engine", Report.Str r.rr_engine);
      ("sync_every", Report.Int r.rr_sync_every);
      ("seeds", Report.List (List.map (fun s -> Report.Int s) r.rr_seeds));
      ("ok", Report.Bool (restart_ok r));
      ( "failed_seeds",
        Report.List (List.map (fun s -> Report.Int s) r.rr_failed_seeds) );
      ("commits", Report.Int r.rr_commits);
      ("acked", Report.Int r.rr_acked);
      ("recovered", Report.Int r.rr_recovered);
      ("torn_seeds", Report.Int r.rr_torn_seeds);
      ( "lost_acked_seeds",
        Report.List (List.map (fun s -> Report.Int s) r.rr_lost_acked_seeds)
      );
      ( "lost_commit_seeds",
        Report.List
          (List.map (fun s -> Report.Int s) r.rr_lost_commit_seeds) ) ]

let restart_report_json (results : restart_result list) =
  Report.Obj
    [ ("schema_version", Report.Int Report.schema_version);
      ("kind", Report.Str "chaos-restart");
      ("sanitizer", Report.sanitizer_to_json ());
      ("recovery", Report.recovery_to_json ());
      ("durability", Report.durability_to_json ());
      ("restarts", Report.List (List.map restart_to_json results)) ]

let kill_report_json (results : kill_result list) =
  Report.Obj
    [ ("schema_version", Report.Int Report.schema_version);
      ("kind", Report.Str "chaos-kill");
      ("sanitizer", Report.sanitizer_to_json ());
      ("recovery", Report.recovery_to_json ());
      ("kills", Report.List (List.map kill_to_json results)) ]

let report_json (results : engine_result list) =
  Report.Obj
    [ ("schema_version", Report.Int Report.schema_version);
      ("kind", Report.Str "chaos");
      ( "faults",
        Report.Str (Faults.to_string default_faults) );
      ("sanitizer", Report.sanitizer_to_json ());
      ("recovery", Report.recovery_to_json ());
      ("engines", Report.List (List.map engine_to_json results)) ]
