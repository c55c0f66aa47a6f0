(** The measurement driver: throughput (operations per millisecond) and
    abort rate of one target at one thread count, averaged over several
    timed runs — the methodology of Section VII.A (the paper uses 10 runs
    of 10 s; the defaults here are scaled down so the whole matrix runs in
    CI, and the paper settings are a flag away).

    Methodology.  Each run spawns its workers, waits until every worker has
    checked in, and only then opens the timing window (monotonic clock) and
    releases the start flag; the window closes when the stop flag is set,
    before the joins.  [Domain.spawn]/[Domain.join] overhead and worker
    warm-up therefore never pollute the throughput figure.  Statistics are
    snapshotted after every run and summed with {!Stm_core.Stats.add}, so a
    multi-run point reports the totals of all its runs, not just the last
    one. *)

type point = {
  threads : int;
  ops_per_ms : float;  (** mean of the per-run throughputs *)
  abort_rate : float;
  total_ops : int;       (** summed over runs *)
  total_commits : int;   (** summed over runs *)
  total_aborts : int;    (** summed over runs *)
  elapsed_ms : float;    (** summed measured windows, excludes spawn/join *)
  runs : int;
  stats : Stm_core.Stats.snapshot;  (** accumulated over runs *)
}

let run_point ?(detailed = false) (module T : Target.TARGET) ~cfg ~threads
    ~duration ~runs ~seed =
  let was_detailed = Stm_core.Stats.detailed_enabled () in
  Stm_core.Stats.set_detailed detailed;
  let restore () = Stm_core.Stats.set_detailed was_detailed in
  let one_run run_idx =
    T.setup cfg;
    T.reset_stats ();
    let stop = Atomic.make false in
    let go = Atomic.make false in
    let ready = Atomic.make 0 in
    let ops_done = Array.make threads 0 in
    let worker i () =
      let rng =
        Prng.split (Prng.create ~seed:(seed + run_idx)) ~index:i
      in
      ignore (Atomic.fetch_and_add ready 1);
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      let n = ref 0 in
      while not (Atomic.get stop) do
        T.run_op (Workload.gen_op cfg rng);
        incr n
      done;
      ops_done.(i) <- !n
    in
    let domains = List.init threads (fun i -> Domain.spawn (worker i)) in
    (* Spawning is over once every worker has checked in; the timing window
       is exactly [release of go .. set of stop]. *)
    while Atomic.get ready < threads do
      Domain.cpu_relax ()
    done;
    let t0 = Stm_core.Mclock.now_ns () in
    Atomic.set go true;
    Unix.sleepf duration;
    Atomic.set stop true;
    let t1 = Stm_core.Mclock.now_ns () in
    List.iter Domain.join domains;
    let elapsed_ms = Stm_core.Mclock.elapsed_ms ~t0 ~t1 in
    let ops = Array.fold_left ( + ) 0 ops_done in
    (ops, elapsed_ms, T.abort_snapshot ())
  in
  let results =
    Fun.protect ~finally:restore (fun () -> List.init runs one_run)
  in
  let total_ops = List.fold_left (fun a (n, _, _) -> a + n) 0 results in
  let elapsed_ms = List.fold_left (fun a (_, ms, _) -> a +. ms) 0.0 results in
  let snap =
    List.fold_left
      (fun acc (_, _, s) -> Stm_core.Stats.add acc s)
      (Stm_core.Stats.empty_snapshot ())
      results
  in
  let mean_throughput =
    List.fold_left (fun a (n, ms, _) -> a +. (float_of_int n /. ms)) 0.0 results
    /. float_of_int runs
  in
  { threads;
    ops_per_ms = mean_throughput;
    abort_rate = Stm_core.Stats.abort_rate snap;
    total_ops;
    total_commits = snap.Stm_core.Stats.commits;
    total_aborts = snap.Stm_core.Stats.aborts;
    elapsed_ms;
    runs;
    stats = snap }

(** One series: the same target across the thread axis. *)
let run_series ?detailed (module T : Target.TARGET) ~cfg ~threads ~duration
    ~runs ~seed =
  List.map
    (fun n ->
      run_point ?detailed (module T : Target.TARGET) ~cfg ~threads:n ~duration
        ~runs ~seed)
    threads
