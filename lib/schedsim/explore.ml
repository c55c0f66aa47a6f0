open Stm_core

type scenario = {
  procs : unit -> (unit -> unit) list;
  check : Sched.outcome -> bool;
}

type result =
  | All_ok of { explored : int; pruned : int }
  | Violation of { schedule : int list; explored : int; pruned : int }
  | Out_of_budget of { explored : int; pruned : int }

exception Found of int list
exception Budget

(* ------------------------------------------------------------------ *)
(* Naive mode: enumerate the full schedule tree depth-first.           *)

let explore_naive ~max_runs ~max_steps scenario =
  let explored = ref 0 in
  let run_one schedule =
    if !explored >= max_runs then raise Budget;
    incr explored;
    let procs = scenario.procs () in
    let outcome, trace = Sched.run_schedule ~max_steps ~schedule procs in
    if not (scenario.check outcome) then
      raise (Found (List.map (fun c -> c.Sched.chosen) trace));
    trace
  in
  (* DFS with replay: run the default extension of [prefix], then branch on
     every not-yet-taken alternative at every decision point after the
     prefix. *)
  let rec dfs prefix =
    let trace = run_one prefix in
    let choices = List.map (fun c -> c.Sched.chosen) trace in
    let n_prefix = List.length prefix in
    List.iteri
      (fun i (c : Sched.choice) ->
        if i >= n_prefix then
          for alt = c.chosen + 1 to List.length c.ready - 1 do
            let new_prefix = List.filteri (fun j _ -> j < i) choices @ [ alt ] in
            dfs new_prefix
          done)
      trace
  in
  match dfs [] with
  | () -> All_ok { explored = !explored; pruned = 0 }
  | exception Found schedule ->
    Violation { schedule; explored = !explored; pruned = 0 }
  | exception Budget -> Out_of_budget { explored = !explored; pruned = 0 }

(* ------------------------------------------------------------------ *)
(* DPOR mode: dynamic partial-order reduction (Flanagan & Godefroid)   *)
(* with sleep sets.  One node per depth of the current schedule:       *)

type node = {
  n_ready : int list;  (* process ids runnable at this point *)
  mutable n_chosen : int;  (* process id currently explored from here *)
  mutable n_fp : Dep.t;  (* footprint of the executed step *)
  mutable n_sleep : (int * Dep.t) list;
      (* processes whose step from this state was fully explored on an
         earlier branch, with that step's footprint; re-running one would
         only reproduce an already-covered Mazurkiewicz trace *)
  mutable n_backtrack : int list;  (* processes that must be tried here *)
  mutable n_explored : int;  (* distinct choices actually run from here *)
}

exception Replay_diverged

let explore_dpor ~max_runs ~max_steps scenario =
  let runs = ref 0 in
  let pruned = ref 0 in
  (* Explicit stack of nodes along the current schedule.  [len] is the
     logical depth; slots above it are garbage from abandoned branches. *)
  let stack = ref [||] in
  let len = ref 0 in
  let push nd =
    if !len = Array.length !stack then begin
      let cap = max 64 (2 * !len) in
      let a = Array.make cap nd in
      Array.blit !stack 0 a 0 !len;
      stack := a
    end;
    !stack.(!len) <- nd;
    incr len
  in
  let index_in_ready p ready =
    let rec go i = function
      | [] -> None
      | x :: tl -> if x = p then Some i else go (i + 1) tl
    in
    go 0 ready
  in
  (* One run: replay the choices recorded on the stack, then extend with the
     first non-sleeping ready process at every new depth.  If at some depth
     every ready process is asleep, the run is cut: each of its extensions
     is equivalent to a schedule explored on another branch. *)
  let run_one () =
    if !runs >= max_runs then raise Budget;
    incr runs;
    let cut = ref false in
    let procs = scenario.procs () in
    let guide ~step ~ready ~prev =
      if step > 0 then (!stack).(step - 1).n_fp <- Dep.of_accesses prev;
      if step < !len then begin
        let nd = (!stack).(step) in
        match index_in_ready nd.n_chosen ready with
        | Some i -> `Go i
        | None -> raise Replay_diverged
      end
      else begin
        let sleep =
          if step = 0 then []
          else
            let parent = (!stack).(step - 1) in
            List.filter
              (fun (_, fq) -> not (Dep.dependent fq parent.n_fp))
              parent.n_sleep
        in
        let sleeping = List.map fst sleep in
        match List.find_opt (fun p -> not (List.mem p sleeping)) ready with
        | None ->
          cut := true;
          `Cut
        | Some p ->
          push
            { n_ready = ready; n_chosen = p; n_fp = Dep.empty; n_sleep = sleep;
              n_backtrack = [ p ]; n_explored = 0 };
          `Go (Option.get (index_in_ready p ready))
      end
    in
    let outcome, trace = Sched.run_guided ~max_steps ~guide procs in
    (outcome, trace, !cut)
  in
  (* Race analysis over the executed trace.  Happens-before is the
     Mazurkiewicz order: program order plus the order of dependent steps,
     tracked with vector clocks indexed by process (clock values are trace
     indices + 1).  For every immediate race (i, j) — dependent steps of
     different processes with no happens-before path between them — the
     state at depth [i] must also try running [j]'s process (or a process
     whose executed steps lead to it) before step [i]. *)
  let analyse trace =
    let evs = Array.of_list trace in
    let n = Array.length evs in
    if n > 0 then begin
      let nprocs =
        1
        + Array.fold_left
            (fun m (c : Sched.choice) -> List.fold_left max m c.ready)
            0 evs
      in
      let proc_of =
        Array.map (fun (c : Sched.choice) -> List.nth c.ready c.chosen) evs
      in
      let fp = Array.map (fun (c : Sched.choice) -> Dep.of_accesses c.accesses) evs in
      let clocks = Array.make n [||] in
      let last_of = Array.make nprocs (-1) in
      let merge dst src =
        for p = 0 to nprocs - 1 do
          if src.(p) > dst.(p) then dst.(p) <- src.(p)
        done
      in
      (* The steps already scanned, per location and process, newest
         first: every step that touched the location, and the steps that
         stored to it.  A step [i] of another process is dependent with [j]
         iff it appears under one of [j]'s locations in the first list when
         [j] stores there, or in the second when [j] only reads; so the
         scan visits just those instead of the whole prefix.  A run in
         which one process retries up to the cap against a descheduled
         rival is thousands of steps long, and almost none of its steps
         depend on each other. *)
      let by_loc : (int, int list array * int list array) Hashtbl.t =
        Hashtbl.create 64
      in
      for j = 0 to n - 1 do
        let q = proc_of.(j) in
        let hb = Array.make nprocs 0 in
        if last_of.(q) >= 0 then Array.blit clocks.(last_of.(q)) 0 hb 0 nprocs;
        let dependent = ref [] in
        Dep.iter
          (fun ~loc ~stores ->
            match Hashtbl.find_opt by_loc loc with
            | None -> ()
            | Some (touched, stored) ->
              let seen = if stores then touched else stored in
              for p = 0 to nprocs - 1 do
                if p <> q then dependent := List.rev_append seen.(p) !dependent
              done)
          fp.(j);
        (* Backward scan over the dependent predecessors: [hb] accumulates
           the clocks of every one already passed, so "hb.(p) <= i" at
           index [i] means no happens-before path from i to j exists
           through later events — an immediate race. *)
        let races = ref [] in
        List.iter
          (fun i ->
            let p = proc_of.(i) in
            if hb.(p) <= i then races := i :: !races;
            merge hb clocks.(i))
          (List.sort_uniq (fun a b -> compare b a) !dependent);
        Dep.iter
          (fun ~loc ~stores ->
            let touched, stored =
              match Hashtbl.find_opt by_loc loc with
              | Some s -> s
              | None ->
                let s = (Array.make nprocs [], Array.make nprocs []) in
                Hashtbl.add by_loc loc s;
                s
            in
            touched.(q) <- j :: touched.(q);
            if stores then stored.(q) <- j :: stored.(q))
          fp.(j);
        hb.(q) <- j + 1;
        clocks.(j) <- hb;
        last_of.(q) <- j;
        List.iter
          (fun i ->
            let nd = (!stack).(i) in
            let add p =
              if not (List.mem p nd.n_backtrack) then
                nd.n_backtrack <- p :: nd.n_backtrack
            in
            (* Processes already running toward j at the time of step i:
               q itself, or any process with an event in (i, j] that
               happens-before j. *)
            let toward =
              List.filter (fun r -> hb.(r) > i + 1) nd.n_ready
            in
            match toward with
            | [] -> List.iter add nd.n_ready
            | _ -> if List.mem q toward then add q else add (List.hd toward))
          !races
      done
    end
  in
  (* Put the explored choice of the deepest node to sleep, then move to the
     next pending backtrack candidate, popping exhausted nodes.  Returns
     false when the whole tree is done. *)
  let rec advance () =
    if !len = 0 then false
    else begin
      let nd = (!stack).(!len - 1) in
      nd.n_sleep <- (nd.n_chosen, nd.n_fp) :: nd.n_sleep;
      nd.n_explored <- nd.n_explored + 1;
      let sleeping = List.map fst nd.n_sleep in
      match
        List.find_opt
          (fun p -> List.mem p nd.n_backtrack && not (List.mem p sleeping))
          nd.n_ready
      with
      | Some p ->
        nd.n_chosen <- p;
        true
      | None ->
        pruned := !pruned + (List.length nd.n_ready - nd.n_explored);
        decr len;
        advance ()
    end
  in
  let rec drive () =
    let outcome, trace, cut = run_one () in
    if not cut && not (scenario.check outcome) then
      raise (Found (List.map (fun c -> c.Sched.chosen) trace));
    analyse trace;
    if advance () then drive ()
  in
  match drive () with
  | () -> All_ok { explored = !runs; pruned = !pruned }
  | exception Found schedule ->
    Violation { schedule; explored = !runs; pruned = !pruned }
  | exception Budget -> Out_of_budget { explored = !runs; pruned = !pruned }

let with_retry_policy ~retry_cap ~starvation_mode f =
  let saved_cap = !Runtime.retry_cap in
  let saved_mode = !Runtime.starvation_mode in
  Runtime.retry_cap := retry_cap;
  Runtime.starvation_mode := starvation_mode;
  Fun.protect
    ~finally:(fun () ->
      Runtime.retry_cap := saved_cap;
      Runtime.starvation_mode := saved_mode)
    f

let explore ?(mode = `Dpor) ?(max_runs = 20_000) ?(max_steps = 20_000)
    ?(retry_cap = 1_000) scenario =
  (* A global serial fallback would defeat exploration (every livelocking
     schedule would converge instead of being pruned), so exploration runs
     with the historical raise-on-cap behaviour. *)
  with_retry_policy ~retry_cap ~starvation_mode:`Raise (fun () ->
      match mode with
      | `Naive -> explore_naive ~max_runs ~max_steps scenario
      | `Dpor -> explore_dpor ~max_runs ~max_steps scenario)

let sample ?(runs = 1_000) ?(max_steps = 20_000) ?(retry_cap = 1_000)
    ?(starvation_mode = `Raise) ?(seed = 1) scenario =
  (* [`Raise] (default) prunes livelocking schedules like [explore]; the
     chaos suite passes [`Fallback] so random schedules also exercise the
     serial-irrevocable escalation path. *)
  with_retry_policy ~retry_cap ~starvation_mode (fun () ->
      let rng = ref (seed lor 1) in
      let next () =
        rng := (!rng * 48271) mod 2147483647;
        !rng
      in
      let rec go i =
        if i >= runs then All_ok { explored = runs; pruned = 0 }
        else begin
          let procs = scenario.procs () in
          let pick ~step:_ ~ready = next () mod List.length ready in
          let outcome, trace = Sched.run ~max_steps ~pick procs in
          if not (scenario.check outcome) then
            Violation
              { schedule = List.map (fun c -> c.Sched.chosen) trace;
                explored = i + 1; pruned = 0 }
          else go (i + 1)
        end
      in
      go 0)

let pp_result ppf = function
  | All_ok { explored; pruned } ->
    Format.fprintf ppf "all %d interleavings OK (%d branch points pruned)"
      explored pruned
  | Violation { schedule; explored; pruned } ->
    Format.fprintf ppf
      "violation after %d interleavings (%d pruned); schedule = [%s]" explored
      pruned
      (String.concat "; " (List.map string_of_int schedule))
  | Out_of_budget { explored; pruned } ->
    Format.fprintf ppf
      "no violation in %d interleavings (budget reached, %d pruned)" explored
      pruned
