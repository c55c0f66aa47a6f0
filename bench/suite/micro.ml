(* The micro pass: the unit cost of each primitive on the transactional
   path, measured from outside through its public function — Bechamel
   (OLS over run counts) for the nanosecond primitives, plain monotonic
   loops for the WAL and recovery, which touch the disk.  Every probe
   uses its own tvars, locks and stats, with no worker domain alive. *)

open Stm_core
open Bechamel

let ns ~quota name f =
  let cfg = Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second quota) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ clock ] (Test.make ~name (Staged.stage f)) in
  let est =
    Hashtbl.fold
      (fun _ r acc ->
        match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> acc)
      (Analyze.all ols clock raw) nan
  in
  (name, est)

(* [{e}.tx.*]: whole transactions through one engine's [atomic]. *)
module Tx (E : Workloads.ENGINE) = struct
  module B = Workloads.Bank (E)

  let probes ~quota ~prefix =
    let tv = Tvar.make 1 in
    let acc = [| Tvar.make 1_000_000; Tvar.make 1_000_000 |] in
    let flip = ref 0 in
    [ ns ~quota (prefix ^ ".tx.empty_ns") (fun () -> E.atomic (fun _ -> ()));
      ns ~quota (prefix ^ ".tx.read1_ns") (fun () -> E.atomic (fun ctx -> E.read ctx tv));
      ns ~quota (prefix ^ ".tx.transfer_ns") (fun () ->
          flip := 1 - !flip;
          B.transfer acc ~src:!flip ~dst:(1 - !flip) 1) ]
end

module Tx_oe = Tx (Oestm.Oe)
module Tx_tl2 = Tx (Classic_stm.Tl2)

let primitives ~quota =
  let tv = Tvar.make 7 and tv2 = Tvar.make 8 and other = Tvar.make 9 in
  let wset = Rwsets.Wset.create () in
  ignore (Rwsets.Wset.add wset tv 1);
  ignore (Rwsets.Wset.add wset tv2 2);
  let entry tv =
    { Rwsets.r_lock = tv.Tvar.lock; r_seen = Vlock.stamp tv.Tvar.lock; r_pe = Tvar.id tv }
  in
  let rset = Rwsets.Rset.create () in
  let full = Rwsets.Rset.create () in
  for _ = 1 to 1024 do
    Rwsets.Rset.push full (entry (Tvar.make 0))
  done;
  let e = entry tv in
  let scratch = Rwsets.Wset.create () in
  let install = Rwsets.Wset.create () in
  let a = Tvar.make 0 and b = Tvar.make 0 in
  ignore (Rwsets.Wset.add install a 1);
  ignore (Rwsets.Wset.add install b 2);
  let wv = ref (Clock.now ()) in
  let lock = Vlock.create () in
  let st = Stats.create () in
  let staged = [ (1, String.make 8 'x'); (2, String.make 8 'y') ] in
  let policy = Clock.current_policy () in
  let ticks =
    List.map
      (fun p ->
        Clock.set_policy p;
        ns ~quota ("clock.tick_ns." ^ Clock.policy_name p) (fun () -> Clock.tick ()))
      Clock.all_policies
  in
  Clock.set_policy policy;
  [ ns ~quota "tvar.read_consistent_ns" (fun () -> Tvar.read_consistent tv);
    ns ~quota "runtime.schedule_point_ns" (fun () ->
        Runtime.schedule_point_on (Runtime.Read (Tvar.id tv)));
    ns ~quota "wset.find_miss_ns" (fun () -> Rwsets.Wset.find wset other);
    ns ~quota "wset.find_hit_ns" (fun () -> Rwsets.Wset.find wset tv);
    ns ~quota "rset.push_ns" (fun () ->
        if Rwsets.Rset.length rset >= 1024 then Rwsets.Rset.clear rset;
        Rwsets.Rset.push rset e);
    (let n, v =
       ns ~quota "rset.validate_ns_per_entry" (fun () ->
           Rwsets.Rset.validate full ~owner:(-2))
     in
     (n, v /. 1024.));
    (let n, v =
       ns ~quota "wset.add_ns" (fun () ->
           Rwsets.Wset.clear scratch;
           ignore (Rwsets.Wset.add scratch a 1);
           Rwsets.Wset.add scratch b 2)
     in
     (n, v /. 2.));
    ns ~quota "wset.lock_install_ns" (fun () ->
        ignore (Rwsets.Wset.lock_all install ~owner:(-2));
        incr wv;
        Rwsets.Wset.install_and_unlock install ~wv:!wv);
    ns ~quota "vlock.lock_unlock_ns" (fun () ->
        ignore (Vlock.try_lock lock ~owner:(-2));
        Vlock.unlock_restore lock);
    ns ~quota "clock.now_ns" Clock.now ]
  @ ticks
  @ [ ns ~quota "stats.record_ns" (fun () -> Stats.record_commit st);
      ns ~quota "durable.stage_ns" (fun () ->
          Durable.stage ~wv:1 staged;
          Durable.discard_staged ());
      ns ~quota "mclock.now_ns" Mclock.now_ns ]
  @ Tx_oe.probes ~quota ~prefix:"oe"
  @ Tx_tl2.probes ~quota ~prefix:"tl2"

let now = Trial.now

(* [wal.append_ns]: mean enqueue cost with fsync off (a transfer-sized
   record); [wal.sync_us]: median forced flush + fsync of one record. *)
let wal ~dir ~appends ~syncs =
  let path = Filename.concat dir "micro.wal" in
  let record i =
    Persist.Wal.Update { wv = i; entries = [ (1, String.make 8 'a'); (2, String.make 8 'b') ] }
  in
  let w = Persist.Wal.open_log ~path ~sync_every:0 ~sync_ns:0 in
  let t0 = now () in
  for i = 1 to appends do
    Persist.Wal.append w (record i)
  done;
  let append_ns = float_of_int (now () - t0) /. float_of_int appends in
  let sync_us =
    List.init syncs (fun i ->
        Persist.Wal.append w (record (appends + i + 1));
        let t0 = now () in
        Persist.Wal.sync w;
        float_of_int (now () - t0) /. 1e3)
  in
  Persist.Wal.close w;
  Sys.remove path;
  [ ("wal.append_ns", append_ns); ("wal.sync_us", Quantile.median sync_us) ]

(* [durable.hook_*]: the span around [!Durable.commit_hook] over
   single-domain OE transfers on persistent accounts with a WAL at
   sync_every=8, as on bank-durable: most calls append, every 8th also
   fsyncs. *)
let hook ~dir ~transfers =
  let path = Filename.concat dir "hook.wal" in
  Persist.reset_for_testing ();
  let acc =
    Array.init 2 (fun id -> Persist.Ptvar.tvar (Persist.Ptvar.make ~id ~codec:Persist.Codec.int 1_000_000))
  in
  Persist.enable ~sync_every:Workloads.sync_every ~path ();
  let h = Lathist.create () in
  let unwrap = Trial.wrap_commit_hook (fun t0 t1 -> Lathist.record h (t1 - t0)) in
  for i = 1 to transfers do
    ignore (Tx_oe.B.transfer acc ~src:(i land 1) ~dst:(1 - (i land 1)) 1)
  done;
  unwrap ();
  Persist.reset_for_testing ();
  Sys.remove path;
  [ ("durable.hook_p50_us", Lathist.percentile h 50. /. 1e3);
    ("durable.hook_p99_us", Lathist.percentile h 99. /. 1e3) ]

(* [persist.recover_s]: median time to replay the 2^16-record base log
   into freshly registered ptvars. *)
let recover ~(base : Workloads.base_log) ~reps =
  let times =
    List.init reps (fun _ ->
        Persist.reset_for_testing ();
        let t0 = now () in
        let ps, _ = Workloads.recover_into ~path:base.Workloads.path 0 in
        let dt = float_of_int (now () - t0) /. 1e9 in
        if Array.map Persist.Ptvar.value ps <> base.Workloads.balances then
          failwith "micro: recovery does not match the base log";
        dt)
  in
  Persist.reset_for_testing ();
  [ ("persist.recover_s", Quantile.median times) ]

let run ~smoke ~dir ~base =
  let quota = if smoke then 0.005 else 0.2 in
  primitives ~quota
  @ wal ~dir ~appends:(if smoke then 1000 else 20_000) ~syncs:(if smoke then 5 else 64)
  @ hook ~dir ~transfers:(if smoke then 400 else 4096)
  @ recover ~base ~reps:(if smoke then 1 else 5)
