(* One trial: timed set-up (build, preload, register, spawn workers up to
   the barrier), a warm-up whose ops are discarded, a timed window, join,
   then the workload's end check.  Workers run a closed loop: each issues
   its next op only after the previous one returned. *)

open Stm_core

let now () = Int64.to_int (Mclock.now_ns ())

(* ------------------------------------------------------------------ *)
(* Traced-run observation points                                       *)

(* Per-domain access counts, fed by the counting [Runtime.yield_hook].
   A [Pure] access is the commit's scheduling point, so a commit attempt
   that wrote is a [Pure] preceded by at least one [Write]. *)
type counts = {
  mutable reads : int;
  mutable writes : int;
  mutable locks : int;
  mutable writing_commits : int;
  mutable dirty : bool;
}

let zero_counts () =
  { reads = 0; writes = 0; locks = 0; writing_commits = 0; dirty = false }

let counts_key = Domain.DLS.new_key zero_counts

let counting_hook (a : Runtime.access) =
  let c = Domain.DLS.get counts_key in
  match a with
  | Read _ -> c.reads <- c.reads + 1
  | Write _ ->
    c.writes <- c.writes + 1;
    c.dirty <- true
  | Lock _ -> c.locks <- c.locks + 1
  | Pure ->
    if c.dirty then begin
      c.writing_commits <- c.writing_commits + 1;
      c.dirty <- false
    end

(* A traced worker's span buffer and commit-hook call count; [op] is the
   id of the in-window op running now, -1 outside the window. *)
type tracer = {
  spans : Spans.buf;
  mutable hook_calls : int;
  mutable op : int;
}

let tracer_key : tracer option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Time every call of the public [Durable.commit_hook] into [record t0 t1];
   returns the function that restores the original hook. *)
let wrap_commit_hook record =
  let orig = !Durable.commit_hook in
  (Durable.commit_hook :=
     fun st ->
       let t0 = now () in
       orig st;
       record t0 (now ()));
  fun () -> Durable.commit_hook := orig

(* In a traced trial: a child span of the running op. *)
let hook_span t0 t1 =
  match Domain.DLS.get tracer_key with
  | None -> ()
  | Some tr ->
    tr.hook_calls <- tr.hook_calls + 1;
    if tr.op >= 0 then Spans.push tr.spans ~kind:Spans.hook_kind ~t0 ~t1 ~op:tr.op

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)

(* The start barrier.  Workers and the main domain block on [cond]
   rather than spin, so set-up time is not inflated by spinners sharing
   the cores with the domain still spawning. *)
type sync = {
  mu : Mutex.t;
  cond : Condition.t;
  mutable ready : int;
  mutable go : bool;
  mutable t_start : int;
  mutable t_end : int;
}

let locked s f =
  Mutex.lock s.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mu) f

type worker = {
  hist : Lathist.t;
  tracer : tracer option;
  mutable executed : int;  (** every op run, warm-up included *)
  mutable window_ops : int;
  mutable failed : int;
  mutable minor_words : float;  (** this domain's allocation in the window *)
  mutable majors : int;  (** major cycles (process-wide) in the window *)
  mutable counts : counts;
}

let new_worker ~traced =
  { hist = Lathist.create ();
    tracer =
      (if traced then
         Some { spans = Spans.create (); hook_calls = 0; op = -1 }
       else None);
    executed = 0; window_ops = 0; failed = 0; minor_words = 0.; majors = 0;
    counts = zero_counts () }

(* Ops awaiting their WAL acknowledgement (durable workloads), as a ring
   of (start time, record index).  With one worker an op's record index is
   the appended-record count right after it returns. *)
let ring = 64

let await_go sync =
  locked sync (fun () ->
      sync.ready <- sync.ready + 1;
      Condition.broadcast sync.cond;
      while not sync.go do
        Condition.wait sync.cond sync.mu
      done;
      (sync.t_start, sync.t_end))

(* The closed loop of one worker, from the barrier to [t_end]. *)
let run_worker ~(inst : Workloads.instance) ~ops ~durable (r : worker) ~t_start ~t_end =
  let mask = Array.length ops - 1 in
  Domain.DLS.set tracer_key r.tracer;
  Domain.DLS.set counts_key (zero_counts ());
  let pend_t0 = Array.make ring 0 and pend_rec = Array.make ring 0 in
  let head = ref 0 and tail = ref 0 in
  let i = ref 0 and running = ref true and in_window = ref false in
  let gc0 = ref 0. and maj0 = ref 0 in
  while !running do
    let t0 = now () in
    if t0 >= t_end then running := false
    else begin
      if (not !in_window) && t0 >= t_start then begin
        in_window := true;
        gc0 := Gc.minor_words ();
        maj0 := (Gc.quick_stat ()).Gc.major_collections
      end;
      let op = ops.(!i land mask) in
      (match r.tracer with
      | Some tr -> tr.op <- (if !in_window then r.window_ops else -1)
      | None -> ());
      (try inst.exec op with _ -> r.failed <- r.failed + 1);
      let t1 = now () in
      incr i;
      if !in_window then begin
        if durable then begin
          if !tail - !head = ring then incr head;
          pend_t0.(!tail land (ring - 1)) <- t0;
          pend_rec.(!tail land (ring - 1)) <- Persist.appended_records ();
          incr tail;
          let acked = Persist.acked_records () in
          while !head < !tail && pend_rec.(!head land (ring - 1)) <= acked do
            Lathist.record r.hist (t1 - pend_t0.(!head land (ring - 1)));
            incr head
          done
        end
        else Lathist.record r.hist (t1 - t0);
        (match r.tracer with
        | Some tr -> Spans.push tr.spans ~kind:op ~t0 ~t1 ~op:r.window_ops
        | None -> ());
        r.window_ops <- r.window_ops + 1
      end
    end
  done;
  if !in_window then begin
    r.minor_words <- Gc.minor_words () -. !gc0;
    r.majors <- (Gc.quick_stat ()).Gc.major_collections - !maj0
  end;
  r.executed <- !i;
  r.counts <- Domain.DLS.get counts_key;
  Domain.DLS.set tracer_key None

(* ------------------------------------------------------------------ *)
(* Trials                                                              *)

type t = {
  engine : Workloads.engine;
  traced : bool;
  setup_s : float;
  window_s : float;
  window_ops : int;
  ops_per_s : float;
  hist : Lathist.t;
  executed : int;
  failed : int;  (** every executed op when the end check failed *)
  check : (unit, string) result;
  minor_words : float;
  majors : int;
  counts : counts;  (** zero unless traced *)
  stats : Stats.snapshot;
  hook_calls : int;
  spans_recorded : int;
  spans_dropped : int;
  kept : Spans.kept list;
  wal_syncs : int;
  wal_appends : int;
  wal_bytes : int;
}

let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a

let run (wl : Workloads.t) ~engine ~(ops : int array array) ~warmup ~window ~traced =
  wl.prepare ();
  (* Untimed: collect the previous trial's garbage now, so that neither
     this set-up nor this window pays for it. *)
  Gc.full_major ();
  let stats = Workloads.engine_stats engine in
  Stats.reset stats;
  let d0 = Stats.durable_counters () in
  let log0 = wl.log_size () in
  let workers = Array.init wl.workers (fun _ -> new_worker ~traced) in
  let sync =
    { mu = Mutex.create (); cond = Condition.create (); ready = 0; go = false; t_start = 0; t_end = 0 }
  in
  let prev_yield = !Runtime.yield_hook in
  let t0 = now () in
  let inst = wl.setup engine ~ops in
  let unwrap =
    if traced then begin
      Runtime.yield_hook := counting_hook;
      Stats.set_detailed true;
      wrap_commit_hook hook_span
    end
    else ignore
  in
  let work w ~t_start ~t_end =
    run_worker ~inst ~ops:ops.(w) ~durable:wl.durable workers.(w) ~t_start ~t_end
  in
  (* Worker 0 is the main domain itself: a one-worker workload then runs
     in a single domain, with no other domain to rendezvous with at every
     stop-the-world minor collection. *)
  let others =
    List.init (wl.workers - 1) (fun i ->
        Domain.spawn (fun () ->
            let t_start, t_end = await_go sync in
            work (i + 1) ~t_start ~t_end))
  in
  let t1 =
    locked sync (fun () ->
        while sync.ready < wl.workers - 1 do
          Condition.wait sync.cond sync.mu
        done;
        let t1 = now () in
        sync.t_start <- t1 + int_of_float (warmup *. 1e9);
        sync.t_end <- sync.t_start + int_of_float (window *. 1e9);
        sync.go <- true;
        Condition.broadcast sync.cond;
        t1)
  in
  work 0 ~t_start:sync.t_start ~t_end:sync.t_end;
  List.iter Domain.join others;
  unwrap ();
  Runtime.yield_hook := prev_yield;
  Stats.set_detailed false;
  let snapshot = Stats.snapshot stats in
  let executed = sum (fun (w : worker) -> w.executed) workers in
  let check =
    try inst.check ~executed:(Array.map (fun (w : worker) -> w.executed) workers)
    with e -> Error (Printexc.to_string e)
  in
  let d1 = Stats.durable_counters () in
  let window_s = float_of_int (sync.t_end - sync.t_start) /. 1e9 in
  let window_ops = sum (fun (w : worker) -> w.window_ops) workers in
  let hist = Lathist.create () in
  Array.iter (fun (w : worker) -> Lathist.add_into ~dst:hist w.hist) workers;
  let tracers = List.filter_map (fun (w : worker) -> w.tracer) (Array.to_list workers) in
  let counts = zero_counts () in
  Array.iter
    (fun (w : worker) ->
      counts.reads <- counts.reads + w.counts.reads;
      counts.writes <- counts.writes + w.counts.writes;
      counts.locks <- counts.locks + w.counts.locks;
      counts.writing_commits <- counts.writing_commits + w.counts.writing_commits)
    workers;
  { engine; traced; setup_s = float_of_int (t1 - t0) /. 1e9; window_s; window_ops;
    ops_per_s = float_of_int window_ops /. window_s; hist; executed;
    failed = (if Result.is_ok check then sum (fun (w : worker) -> w.failed) workers else executed);
    check;
    minor_words = Array.fold_left (fun a (w : worker) -> a +. w.minor_words) 0. workers;
    majors = Array.fold_left (fun a (w : worker) -> max a w.majors) 0 workers;
    counts; stats = snapshot;
    hook_calls = List.fold_left (fun a (tr : tracer) -> a + tr.hook_calls) 0 tracers;
    spans_recorded = List.fold_left (fun a (tr : tracer) -> a + tr.spans.Spans.n) 0 tracers;
    spans_dropped = List.fold_left (fun a (tr : tracer) -> a + tr.spans.Spans.dropped) 0 tracers;
    kept =
      List.mapi
        (fun w (tr : tracer) ->
          Spans.retain tr.spans ~workload:wl.name
            ~engine:(Workloads.engine_name engine) ~worker:w ~origin:sync.t_start
            ~name_of:wl.op_name)
        tracers;
    wal_syncs = d1.Stats.wal_syncs - d0.Stats.wal_syncs;
    wal_appends = d1.Stats.wal_appends - d0.Stats.wal_appends;
    wal_bytes = wl.log_size () - log0 }

(* The sequential reference: the first worker's ops on the workload's bare
   structure, in the main domain; ops per second. *)
let run_seq (wl : Workloads.t) ~(ops : int array array) ~window =
  let exec = wl.seq () in
  let ops = ops.(0) in
  let mask = Array.length ops - 1 in
  let t0 = now () in
  let t_end = t0 + int_of_float (window *. 1e9) in
  let n = ref 0 in
  while now () < t_end do
    exec ops.(!n land mask);
    incr n
  done;
  float_of_int !n /. (float_of_int (now () - t0) /. 1e9)
