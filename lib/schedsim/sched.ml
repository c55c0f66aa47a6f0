open Stm_core

type _ Effect.t += Yield : Runtime.access -> unit Effect.t

exception Killed_by_scheduler

type outcome = {
  steps : int;
  failures : (int * exn) list;
  killed : int list;
}

let completed o = o.failures = [] && o.killed = []

type choice = {
  ready : int list;
  chosen : int;
  accesses : Runtime.access list;
}

type guidance = [ `Go of int | `Cut ]

(* Mutable per-step record: accesses accumulate while the step runs and are
   flushed when the next decision is taken (or the run ends). *)
type step_rec = {
  s_ready : int list;
  s_chosen : int;
  mutable s_acc : Runtime.access list;
}

type proc_state = {
  index : int;
  mutable thunk : (unit -> unit) option;  (* [Some] until first activation *)
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable tls : Obj.t array;
  mutable finished : bool;
  mutable failure : exn option;
  mutable pending : Runtime.access;
      (* annotation carried by the yield that suspended this process; it
         seeds the footprint of the process's next step *)
}

let handler st =
  { Effect.Deep.retc = (fun () -> st.finished <- true);
    exnc =
      (fun e ->
        st.finished <- true;
        st.failure <- Some e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield a ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              st.cont <- Some k;
              st.pending <- a;
              st.tls <- Runtime.save_all_tls ())
        | _ -> None) }

let activate st =
  Runtime.restore_all_tls st.tls;
  match (st.cont, st.thunk) with
  | Some k, _ ->
    st.cont <- None;
    Effect.Deep.continue k ()
  | None, Some thunk ->
    st.thunk <- None;
    Effect.Deep.match_with thunk () (handler st)
  | None, None -> invalid_arg "Sched.activate: process already finished"

let kill st =
  match st.cont with
  | None -> ()
  | Some k -> (
    st.cont <- None;
    (* Exceptions raised by the unwinding process land in its own handler
       ([exnc] above records them in [st.failure]); the only exception
       [discontinue] itself can raise at us is
       [Continuation_already_resumed].  Anything else — a [Control] abort
       or an assertion failure escaping the scheduler machinery itself —
       must propagate, not be silently dropped. *)
    try Effect.Deep.discontinue k Killed_by_scheduler
    with Effect.Continuation_already_resumed -> ())

let run_guided ?(max_steps = 100_000) ~guide procs =
  let states =
    List.mapi
      (fun index thunk ->
        { index; thunk = Some thunk; cont = None;
          tls = Runtime.save_all_tls (); finished = false; failure = None;
          pending = Runtime.Pure })
      procs
    |> Array.of_list
  in
  let current = ref (-1) in
  let saved_yield = !Runtime.yield_hook in
  let saved_plane = Runtime.save_plane () in
  let outer_tls = Runtime.save_all_tls () in
  let acc = ref [] in
  (* Outside a step (between decisions, in unwind handlers) the process
     is the caller's. *)
  let outer_proc =
    match saved_plane.sim with
    | Some f -> f
    | None -> fun () -> (Domain.self () :> int)
  in
  Runtime.plane.sim <-
    Some (fun () -> if !current >= 0 then !current else outer_proc ());
  Runtime.reset_sim_ids ();
  Runtime.plane.trace <- Some (fun a -> acc := a :: !acc);
  Runtime.yield_hook := (fun a -> Effect.perform (Yield a));
  let restore_environment () =
    Runtime.yield_hook := saved_yield;
    Runtime.restore_plane saved_plane;
    Runtime.restore_all_tls outer_tls;
    current := -1
  in
  let trace = ref [] in
  let steps = ref 0 in
  let killed = ref [] in
  (* Attribute the accesses accumulated since the last decision to the step
     that performed them.  Appends, so accesses traced while killing
     processes (unwind handlers) also land on the last executed step. *)
  let flush_step () =
    (match !trace with
    | [] -> ()
    | r :: _ -> r.s_acc <- r.s_acc @ List.rev !acc);
    acc := []
  in
  let kill_ready ready =
    List.iter
      (fun i ->
        kill states.(i);
        states.(i).finished <- true;
        killed := i :: !killed)
      ready
  in
  (try
     let rec loop () =
       let ready =
         Array.to_list states
         |> List.filter_map (fun st ->
                if st.finished then None else Some st.index)
       in
       if ready = [] then flush_step ()
       else if !steps >= max_steps then begin
         kill_ready ready;
         flush_step ()
       end
       else begin
         flush_step ();
         let prev = match !trace with [] -> [] | r :: _ -> r.s_acc in
         match guide ~step:!steps ~ready ~prev with
         | `Cut ->
           kill_ready ready;
           flush_step ()
         | `Go chosen ->
           let chosen = max 0 (min chosen (List.length ready - 1)) in
           trace := { s_ready = ready; s_chosen = chosen; s_acc = [] } :: !trace;
           incr steps;
           let st = states.(List.nth ready chosen) in
           current := st.index;
           (* The annotation announced at the suspending yield opens the
              step's footprint; tracing fills in the rest dynamically. *)
           acc := [ st.pending ];
           st.pending <- Runtime.Pure;
           activate st;
           current := -1;
           loop ()
       end
     in
     loop ()
   with e ->
     restore_environment ();
     raise e);
  restore_environment ();
  let failures =
    Array.to_list states
    |> List.filter_map (fun st ->
           match st.failure with Some e -> Some (st.index, e) | None -> None)
  in
  ( { steps = !steps; failures; killed = List.rev !killed },
    List.rev_map
      (fun r -> { ready = r.s_ready; chosen = r.s_chosen; accesses = r.s_acc })
      !trace )

let run ?max_steps ?pick procs =
  let pick =
    match pick with
    | Some f -> f
    | None -> fun ~step ~ready -> step mod List.length ready
  in
  run_guided ?max_steps
    ~guide:(fun ~step ~ready ~prev:_ -> `Go (pick ~step ~ready))
    procs

let run_schedule ?max_steps ~schedule procs =
  let schedule = Array.of_list schedule in
  let pick ~step ~ready:_ =
    if step < Array.length schedule then schedule.(step) else 0
  in
  run ?max_steps ~pick procs
