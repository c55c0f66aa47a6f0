(** Chaos testing: the four engines under injected faults, domain kills
    and kill -9 with write-ahead-log recovery.

    Three lanes, each written once over a per-engine {!kit} that supplies
    only what differs between OE-STM, TL2, View-STM and boosting:

    - {b faults} ({!run_engine}): for each seed, random schedules from the
      deterministic scheduler run a small transfer workload while
      {!Stm_core.Faults} injects spurious aborts, lock-acquire failures,
      validation failures and delays.  Every schedule must show no torn
      read (every transaction that reads all cells sees the conserved
      total), conservation once all processes finish, and no escaping
      exception — under the default configuration no process may end with
      {!Stm_core.Control.Starvation}: the serial-irrevocable fallback must
      absorb livelocks.  A high-rate scenario (retry cap 1, near-certain
      injected aborts) drives every engine into that fallback, and a
      multi-domain stress run checks conservation under real parallelism;
    - {b domain kills} ({!run_kill}): killer domains crash mid-commit
      holding a lock; survivors must keep committing with recovery on and
      must wedge with it off;
    - {b crash-restart} ({!run_restart}): a forked child commits durable
      transfers until SIGKILL, and the parent recovers its log.

    The module is shared by the [chaos] test suite and [bin/chaos.exe]
    (which emits the JSON reports CI archives). *)

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

(* Every cell of every scenario starts at [preload]. *)
let preload = 100

let spawn_join n f =
  List.iter Domain.join (List.init n (fun i -> Domain.spawn (fun () -> f i)))

(* ------------------------------------------------------------------ *)
(* The per-engine kit                                                  *)

(** The fresh state of one schedule-explored scenario: its processes and
    the check on the state they leave once all of them completed. *)
type setup = (unit -> unit) list * (unit -> bool)

(** The fresh state of one kill scenario.  [killer k] runs killer [k]'s
    transaction over its private band (the armed fault crashes it);
    [survivor d] is survivor [d]'s step, applied to [0 .. txns-1]; the
    final check sees whether the survivors wedged. *)
type kill = {
  killer : int -> unit;
  survivor : int -> int -> unit;
  conserved : wedged:bool -> bool;
}

(** What differs between engines; every lane is written once on top. *)
type kit = {
  name : string;
  stats : Stats.t;
  isolation : unit -> setup;  (** torn reads and conservation *)
  fallback : unit -> setup;   (** one transaction, to run at retry cap 1 *)
  stress : domains:int -> txns:int -> bool;  (** multi-domain; conserved? *)
  killer_cap : int;           (** killers with a private band *)
  crash_points : int;         (** the killer dies holding exactly one lock *)
  kill : survivors:int -> kill;
  transfer : (int Tvar.t -> int Tvar.t -> unit) option;
      (** crash-restart's durable transfer; [None] without a tvar write set *)
}

module Tvar_kit (S : Stm_intf.S with type 'a tvar = 'a Tvar.t) = struct
  let cells n = Array.init n (fun _ -> S.tvar preload)
  let sum tvs = Array.fold_left (fun a tv -> a + S.peek tv) 0 tvs

  let transfer a b =
    S.atomic (fun ctx ->
        let va = S.read ctx a in
        let vb = S.read ctx b in
        S.write ctx a (va - 1);
        S.write ctx b (vb + 1))

  (* Worker [d]'s [j]-th transfer over the 8 cells of the stress and kill
     scenarios: never from a cell to itself. *)
  let step tvs d j =
    let a = (d + j) mod 8 in
    transfer tvs.(a) tvs.((a + 1 + (j mod 7)) mod 8)

  let kit =
    { name = S.name;
      stats = S.stats;
      (* Two processes, two transfers each.  Each transfer reads every
         cell (isolation check), then moves one unit between two of them. *)
      isolation =
        (fun () ->
          let tvs = cells 4 in
          let torn = ref false in
          let proc i () =
            for j = 0 to 1 do
              let a = (i + j) mod 4 in
              let b = (a + 1 + i) mod 4 in
              let seen =
                S.atomic (fun ctx ->
                    let vals = Array.map (S.read ctx) tvs in
                    S.write ctx tvs.(a) (vals.(a) - 1);
                    S.write ctx tvs.(b) (vals.(b) + 1);
                    Array.fold_left ( + ) 0 vals)
              in
              if seen <> 4 * preload then torn := true
            done
          in
          ([ proc 0; proc 1 ], fun () -> (not !torn) && sum tvs = 4 * preload));
      fallback =
        (fun () ->
          let tv = S.tvar 0 in
          ( [ (fun () -> S.atomic (fun ctx -> S.write ctx tv (S.read ctx tv + 1)))
            ],
            fun () -> S.peek tv = 1 ));
      stress =
        (fun ~domains ~txns ->
          let tvs = cells 8 in
          spawn_join domains (fun d ->
              for j = 1 to txns do step tvs d j done);
          sum tvs = 8 * preload);
      (* Each killer reads and rewrites the two cells of its private band.
         The transaction costs read, write, read, write (four points), one
         commit point, then one lock point per write-set entry — all three
         tvar engines lock lazily at commit through [Wset.lock_all], so the
         count is engine-independent.  Point 7 is the second lock point,
         which fires {e before} the acquisition attempt: the domain dies
         holding exactly one write lock (its band's lower cell),
         pre-install, so cell values are untouched and conservation is
         trivially preserved.  Bands are disjoint, so concurrent killers
         cannot perturb each other's point arithmetic.  Survivors transfer
         across all cells, so every one of them walks into the orphaned
         locks within its first few transactions. *)
      killer_cap = 4;
      crash_points = 7;
      kill =
        (fun ~survivors:_ ->
          let tvs = cells 8 in
          { killer =
              (fun k ->
                let a = tvs.(2 * k) and b = tvs.((2 * k) + 1) in
                S.atomic (fun ctx ->
                    S.write ctx a (S.read ctx a);
                    S.write ctx b (S.read ctx b)));
            survivor = (fun d i -> step tvs d (i + 1));
            conserved = (fun ~wedged:_ -> sum tvs = 8 * preload) });
      transfer = Some transfer }
end

module Oe_kit = Tvar_kit (Oestm.Oe)
module Tl2_kit = Tvar_kit (Classic_stm.Tl2)
module View_kit = Tvar_kit (Oestm.View)

module Boost_set =
  Boosting.Boost
    (struct
      module Base = Seqds.Hash (Seqds.Int_key)

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

let boost_kit =
  let module B = Boost_set in
  let n_stripes = 8 in
  (* First key at or above [start] on [stripe].  [Boost.lock_for] is
     [K.hash k mod stripes]; replicating it aims keys at chosen stripes. *)
  let key_on_stripe ~start stripe =
    let k = ref start in
    while Seqds.Int_key.hash !k mod n_stripes <> stripe do incr k done;
    !k
  in
  { name = "boosting";
    stats = Boosting.stats;
    (* One process inserts pairs atomically; the other must never observe
       half a pair.  Conservation: both pairs complete in the end. *)
    isolation =
      (fun () ->
        let s = B.create ~stripes:4 () in
        let half_pair = ref false in
        ( [ (fun () ->
              ignore (B.add_all s [ 0; 1 ]);
              ignore (B.add_all s [ 2; 3 ]));
            (fun () ->
              for _ = 1 to 2 do
                match
                  Boosting.atomic (fun _ -> (B.contains s 0, B.contains s 1))
                with
                | true, false | false, true -> half_pair := true
                | _ -> ()
              done) ],
          fun () ->
            (not !half_pair) && List.for_all (B.contains s) [ 0; 1; 2; 3 ] ));
    fallback =
      (fun () ->
        let s = B.create ~stripes:2 () in
        ([ (fun () -> ignore (B.add s 7)) ], fun () -> B.contains s 7));
    stress =
      (fun ~domains ~txns ->
        let s = B.create () in
        (* Worker [d]'s [i]-th transaction inserts the pair at
           [2 (d txns + i)], so together they fill [0, 2 domains txns). *)
        spawn_join domains (fun d ->
            for i = 0 to txns - 1 do
              let base = 2 * ((d * txns) + i) in
              ignore (B.add_all s [ base; base + 1 ])
            done);
        List.for_all (B.contains s) (List.init (2 * domains * txns) Fun.id));
    (* Each killer inserts a two-key pair whose keys land on its private
       pair of stripes; boosting fires one schedule point per {e fresh}
       abstract-lock acquisition (the reentrant fast path has none), and
       the point fires before the acquisition attempt, so point 2 crashes
       the killer holding exactly its first stripe lock.  The first key is
       already in the set — boosting applies operations eagerly and the
       crashed transaction's undo log dies with it (the lost-undo
       limitation DESIGN.md 5h documents) — so the conservation check
       covers survivor keys only, from disjoint ranges.  Each survivor
       aims successive inserts at successive stripes, so all of them hit
       the orphaned stripes within their first [n_stripes] operations. *)
    killer_cap = n_stripes / 2;
    crash_points = 2;
    kill =
      (fun ~survivors ->
        let s = B.create ~stripes:n_stripes () in
        let committed = Array.make survivors [] in
        { killer =
            (fun k ->
              ignore
                (B.add_all s
                   [ key_on_stripe ~start:0 (2 * k);
                     key_on_stripe ~start:0 ((2 * k) + 1) ]));
          survivor =
            (fun d ->
              let cursor = ref (10_000 * (d + 1)) in
              fun i ->
                let key = key_on_stripe ~start:!cursor (i mod n_stripes) in
                cursor := key + 1;
                ignore (B.add s key);
                committed.(d) <- key :: committed.(d));
          (* Reading back is itself transactional, so it only runs when
             nothing wedged: against orphaned stripes it would wedge too. *)
          conserved =
            (fun ~wedged ->
              wedged || Array.for_all (List.for_all (B.contains s)) committed)
        });
    (* Boosting has no tvar write set and takes no part in durability
       (DESIGN.md 5h). *)
    transfer = None }

let kit_of = function
  | OE -> Oe_kit.kit
  | TL2 -> Tl2_kit.kit
  | View -> View_kit.kit
  | Boost -> boost_kit

let engine_name e = (kit_of e).name
let default_seeds = List.init 20 (fun i -> i + 1)

(* ------------------------------------------------------------------ *)
(* Faults lane                                                         *)

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

(* The outcome check of every explored scenario: nothing may escape,
   Starvation included, and a run that completed must leave a correct
   final state. *)
let scenario (setup : unit -> setup) =
  let final = ref (fun () -> true) in
  { Explore.procs =
      (fun () ->
        let procs, check = setup () in
        final := check;
        procs);
    check =
      (fun outcome ->
        match outcome.Sched.failures with
        | _ :: _ -> false
        | [] -> (not (Sched.completed outcome)) || !final ()) }

(* One seed: the isolation scenario under the default rates, then the
   fallback scenario at retry cap 1 and abort rate 0.9.  The caller
   enabled faults and disables them afterwards. *)
let sample_seed kit ~runs ~seed =
  let r1 =
    Explore.sample ~runs ~retry_cap:8 ~starvation_mode:`Fallback ~seed
      (scenario kit.isolation)
  in
  Faults.enable { default_faults with Faults.spurious_abort = 0.9; seed };
  let r2 =
    Explore.sample ~runs:2 ~retry_cap:1 ~starvation_mode:`Fallback ~seed
      (scenario kit.fallback)
  in
  (r1, r2)

let run_engine ?(seeds = default_seeds) ?(runs_per_seed = 30)
    ?(stress_domains = 4) ?(stress_txns = 200) engine =
  if seeds = [] then invalid_arg "Chaos.run_engine: empty seed list";
  let kit = kit_of engine in
  Stats.reset kit.stats;
  Faults.reset_counts ();
  let san0 = Sanitizer.violation_count () in
  let schedules = ref 0 in
  let passed = function
    | Explore.All_ok { explored; _ } | Explore.Out_of_budget { explored; _ }
      ->
      schedules := !schedules + explored;
      true
    | Explore.Violation { explored; _ } ->
      schedules := !schedules + explored;
      false
  in
  let with_faults seed f =
    Faults.enable { default_faults with Faults.seed };
    Fun.protect ~finally:Faults.disable f
  in
  let failed_seeds =
    List.filter
      (fun seed ->
        let r1, r2 =
          with_faults seed (fun () -> sample_seed kit ~runs:runs_per_seed ~seed)
        in
        let ok1 = passed r1 in
        let ok2 = passed r2 in
        not (ok1 && ok2))
      seeds
  in
  let stress_ok =
    with_faults (List.hd seeds) (fun () ->
        kit.stress ~domains:stress_domains ~txns:stress_txns)
  in
  { engine = kit.name;
    seeds;
    runs_per_seed;
    schedules = !schedules;
    failed_seeds;
    stress_ok;
    stats = Stats.snapshot kit.stats;
    injected = Faults.counts ();
    san_violations = Sanitizer.violation_count () - san0 }

(* ------------------------------------------------------------------ *)
(* Domain-kill lane                                                    *)

(** Result of one {!run_kill}: killer domains crash mid-commit holding
    locks; survivor domains then run a contending workload.  With
    recovery on the survivors must keep committing (orphaned locks are
    reclaimed); with recovery off the same scenario must wedge — every
    survivor that trips over an orphaned lock times out. *)
type kill_result = {
  k_engine : string;
  k_recovery : bool;
  k_lease_ns : int;
  k_killers : int;
      (** domains crashed mid-commit: the request, clamped to [1] and to
          the engine's number of private bands (4) *)
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

(** The chaos scenarios' heartbeat lease (10 ms): well under the 300 ms
    wedge timeout, so that with recovery on the survivors reclaim orphaned
    locks long before they would time out. *)
let default_lease_ns = 10_000_000

(* Recovery counters are process-global (steal sites live below the engine
   instances), so [run_kill] resets and snapshots them around one run. *)
let run_kill ?(killers = 2) ?(survivors = 3) ?(txns = 64)
    ?(lease_ns = default_lease_ns) ~recovery engine =
  let kit = kit_of engine in
  Faults.reset_counts ();
  Stats.reset_recovery_counters ();
  let san0 = Sanitizer.violation_count () in
  let killers = max 1 (min killers kit.killer_cap) in
  let sc = kit.kill ~survivors in
  let saved_timeout = !Runtime.tx_timeout_ns in
  if recovery then Recovery.enable ~lease_ns ();
  (* The timeout is the wedge detector: a survivor blocked on an orphaned
     lock with no recovery must surface as [Control.Timeout] rather than
     hang the run. *)
  Runtime.tx_timeout_ns := Some 300_000_000;
  let commits, conserved, wedged =
    Fun.protect
      ~finally:(fun () ->
        Runtime.tx_timeout_ns := saved_timeout;
        if recovery then Recovery.disable ();
        Faults.disable ())
      (fun () ->
        spawn_join killers (fun k ->
            Faults.arm_crash_after ~points:kit.crash_points;
            try sc.killer k with Control.Crashed -> ());
        let commits = Atomic.make 0 in
        let wedged = Atomic.make false in
        spawn_join survivors (fun d ->
            let step = sc.survivor d in
            try
              for i = 0 to txns - 1 do
                if not (Atomic.get wedged) then begin
                  step i;
                  Atomic.incr commits
                end
              done
            with Control.Timeout _ -> Atomic.set wedged true);
        let wedged = Atomic.get wedged in
        (Atomic.get commits, sc.conserved ~wedged, wedged))
  in
  let rc = Stats.recovery_counters () in
  { k_engine = kit.name;
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

(* ------------------------------------------------------------------ *)
(* Crash-restart lane (kill -9 + WAL recovery)                         *)

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

let restart_ptvars () =
  Array.init 4 (fun i ->
      Persist.Ptvar.make ~id:i ~codec:Persist.Codec.int preload)

(* Append what the pipe delivers to [buf] until EOF or, given a
   [deadline], until the deadline passes. *)
let drain ?deadline rd buf =
  let chunk = Bytes.create 4096 in
  let rec go () =
    let ready =
      match deadline with
      | None -> true
      | Some d ->
        let left = d -. Unix.gettimeofday () in
        left > 0.0
        && (match Unix.select [ rd ] [] [] left with
           | [], _, _ -> false
           | _ -> true)
    in
    if ready then
      match Unix.read rd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* The child: durable transfers forever, reporting (commits, acked) as a
   16-byte frame after every commit, until SIGKILL lands.  Runs in a
   forked process, so it must end in [Unix._exit] on every path. *)
let restart_child transfer ~sync_every ~path ~seed wr =
  (try
     Persist.reset_for_testing ();
     let ptvs = restart_ptvars () in
     Persist.enable ~sync_every ~path ();
     let rng = Prng.create ~seed in
     let frame = Bytes.create 16 in
     let commits = ref 0 in
     while true do
       let a = Prng.int rng 4 in
       let b = (a + 1 + Prng.int rng 3) mod 4 in
       transfer (Persist.Ptvar.tvar ptvs.(a)) (Persist.Ptvar.tvar ptvs.(b));
       incr commits;
       Bytes.set_int64_le frame 0 (Int64.of_int !commits);
       Bytes.set_int64_le frame 8 (Int64.of_int (Persist.acked_records ()));
       ignore (Unix.write wr frame 0 16)
     done
   with _ -> ());
  Unix._exit 0

type seed_outcome = {
  so_commits : int;
  so_acked : int;
  so_recovered : int;
  so_conserved : bool;
  so_torn : bool;
  so_child_ok : bool;  (** the child was killed, not crashed *)
}

(* One seed: fork, let the child commit for a seed-derived 10..60 ms,
   SIGKILL it, recover the log in this process, judge the result.  The
   last complete frame is the child's final report; a frame torn by the
   kill is ignored, and a child that died early makes the kill a no-op. *)
let restart_seed transfer ~sync_every ~path ~seed =
  (try Sys.remove path with Sys_error _ -> ());
  let rd, wr = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    restart_child transfer ~sync_every ~path ~seed wr
  | pid ->
    Unix.close wr;
    let kill_after_ms = 10 + (Prng.next (Prng.create ~seed) mod 51) in
    let buf = Buffer.create 4096 in
    drain rd buf
      ~deadline:(Unix.gettimeofday () +. (float_of_int kill_after_ms /. 1000.0));
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    let _, status = Unix.waitpid [] pid in
    drain rd buf;
    Unix.close rd;
    let s = Buffer.contents buf in
    let last = ((String.length s / 16) - 1) * 16 in
    let field i =
      if last < 0 then 0 else Int64.to_int (String.get_int64_le s (last + i))
    in
    Persist.reset_for_testing ();
    let ptvs = restart_ptvars () in
    let r = Persist.recover ~path () in
    let sum = Array.fold_left (fun a p -> a + Persist.Ptvar.value p) 0 ptvs in
    Persist.reset_for_testing ();
    { so_commits = field 0;
      so_acked = field 8;
      so_recovered = r.Persist.updates_intact;
      so_conserved = sum = 4 * preload;
      so_torn = r.Persist.truncated;
      so_child_ok = status = Unix.WSIGNALED Sys.sigkill }

let run_restart ?(seeds = default_seeds) ?(sync_every = 1)
    ?(wal_path = Filename.concat (Filename.get_temp_dir_name ())
                   (Printf.sprintf "chaos-restart-%d.wal" (Unix.getpid ())))
    engine =
  if Sys.win32 then invalid_arg "Chaos.run_restart: requires fork(2)";
  if seeds = [] then invalid_arg "Chaos.run_restart: empty seed list";
  let kit = kit_of engine in
  let transfer =
    match kit.transfer with
    | Some t -> t
    | None -> invalid_arg ("Chaos.run_restart: no tvar write set in " ^ kit.name)
  in
  let failed = ref [] and lost_acked = ref [] and lost_commits = ref [] in
  let commits = ref 0 and acked = ref 0 and recovered = ref 0 in
  let torn = ref 0 in
  List.iter
    (fun seed ->
      let o = restart_seed transfer ~sync_every ~path:wal_path ~seed in
      commits := !commits + o.so_commits;
      acked := !acked + o.so_acked;
      recovered := !recovered + o.so_recovered;
      if o.so_torn then incr torn;
      let lost_ack = o.so_recovered < o.so_acked in
      if lost_ack then lost_acked := seed :: !lost_acked;
      if o.so_recovered < o.so_commits then
        lost_commits := seed :: !lost_commits;
      if
        (not o.so_conserved) || (not o.so_child_ok)
        || (sync_every > 0 && lost_ack)
      then failed := seed :: !failed)
    seeds;
  (try Sys.remove wal_path with Sys_error _ -> ());
  { rr_engine = kit.name;
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
(* JSON reports                                                        *)

(** One result as a report entry: its engine, its verdict and the other
    fields in order.  [bin/chaos.exe] prints each summary line from the
    same fields, so every field is named once. *)
type entry = {
  name : string;
  verdict : bool;
  fields : (string * Report.json) list;
}

let ints l = Report.List (List.map (fun s -> Report.Int s) l)

let engine_entry (r : engine_result) =
  { name = r.engine;
    verdict = ok r;
    fields =
      [ ("seeds", ints r.seeds);
        ("runs_per_seed", Report.Int r.runs_per_seed);
        ("schedules", Report.Int r.schedules);
        ("failed_seeds", ints r.failed_seeds);
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
               r.injected) ) ] }

let kill_entry (r : kill_result) =
  { name = r.k_engine;
    verdict = kill_ok r;
    fields =
      [ ("recovery", Report.Bool r.k_recovery);
        ("lease_ns", Report.Int r.k_lease_ns);
        ("killers", Report.Int r.k_killers);
        ("survivors", Report.Int r.k_survivors);
        ("txns_per_survivor", Report.Int r.k_txns);
        ("survivor_commits", Report.Int r.k_commits);
        ("conserved", Report.Bool r.k_conserved);
        ("wedged", Report.Bool r.k_wedged);
        ("crashes", Report.Int r.k_crashes);
        ("orphan_steals", Report.Int r.k_orphan_steals);
        ("lease_expiries", Report.Int r.k_lease_expiries);
        ("poisoned_commits", Report.Int r.k_poisoned_commits);
        ("san_violations", Report.Int r.k_san_violations) ] }

let restart_entry (r : restart_result) =
  { name = r.rr_engine;
    verdict = restart_ok r;
    fields =
      [ ("sync_every", Report.Int r.rr_sync_every);
        ("seeds", ints r.rr_seeds);
        ("failed_seeds", ints r.rr_failed_seeds);
        ("commits", Report.Int r.rr_commits);
        ("acked", Report.Int r.rr_acked);
        ("recovered", Report.Int r.rr_recovered);
        ("torn_seeds", Report.Int r.rr_torn_seeds);
        ("lost_acked_seeds", ints r.rr_lost_acked_seeds);
        ("lost_commit_seeds", ints r.rr_lost_commit_seeds) ] }

(* Every chaos report: schema version, kind, the lane's header fields,
   then its entries under [key]. *)
let report ~kind header key entry results =
  let json e =
    Report.Obj (("engine", Report.Str e.name) :: ("ok", Report.Bool e.verdict)
                :: e.fields)
  in
  Report.Obj
    ([ ("schema_version", Report.Int Report.schema_version);
       ("kind", Report.Str kind) ]
    @ header
    @ [ (key, Report.List (List.map (fun r -> json (entry r)) results)) ])

let report_json results =
  report ~kind:"chaos"
    [ ("faults", Report.Str (Faults.to_string default_faults));
      ("sanitizer", Report.sanitizer_to_json ());
      ("recovery", Report.recovery_to_json ()) ]
    "engines" engine_entry results

(* No "recovery" object: [run_kill] switches recovery off again before the
   report is built, and each entry carries its own setting and counters. *)
let kill_report_json results =
  report ~kind:"chaos-kill"
    [ ("sanitizer", Report.sanitizer_to_json ()) ]
    "kills" kill_entry results

(* No sanitizer, recovery or durability objects: the lane takes none of
   those flags, and the WAL lives in the forked children. *)
let restart_report_json results =
  report ~kind:"chaos-restart" [] "restarts" restart_entry results
