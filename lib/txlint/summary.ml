(* Transitive effect summaries, computed to fixpoint over the call graph
   (DESIGN.md §5i).

   Four effects per indexed function:

   - [escapes]: reaches an escape hatch ([peek] / [unsafe_write] /
     [unsafe_preload]), either by *being* one (the definition, or a
     value alias like [let peek = Tvar.peek]), by mentioning one
     qualified (resolved or not — the unresolved case is the
     conservative fallback that covers functor parameters like
     [S.peek]), or by reaching a function that does.
   - [swallows_abort]: some path ends in a catch-all handler without a
     re-raise — a helper that would turn a doomed transaction into a
     zombie when called from a transaction body.
   - [swallows_crash]: likewise for the raise-at-point fault exceptions.
   - [acquires_lock]: reaches a lock-acquire primitive
     ([Vlock.try_lock]/[try_lock_save], which boosting's abstract
     locks use too, [Wset.lock_all]/[lock_one], [Serial.enter],
     [Mutex.lock]).

   Each present effect carries a witness chain (who was called to reach
   the primitive) used verbatim in finding messages.  Effects only ever
   grow, so the worklist iteration terminates. *)

let escape_names = [ "peek"; "unsafe_write"; "unsafe_preload" ]

(* Lock-acquire primitives, matched on the last two path components of a
   qualified mention.  Bare-name calls that *resolve* to one of these
   (or to a wrapper around one, like boosting's [acquire]) inherit the
   effect through propagation instead. *)
let acquire_primitives =
  [
    [ "Vlock"; "try_lock" ];
    [ "Vlock"; "try_lock_save" ];
    [ "Wset"; "lock_all" ];
    [ "Wset"; "lock_one" ];
    [ "Serial"; "enter" ];
    [ "Mutex"; "lock" ];
  ]

let last2 p =
  match List.rev p with a :: b :: _ -> [ b; a ] | _ -> []

let is_acquire_path p = List.mem (last2 p) acquire_primitives

type eff = {
  mutable escapes : string list option;
  mutable swallows_abort : string list option;
  mutable swallows_crash : string list option;
  mutable acquires_lock : string list option;
}

type t = {
  effs : eff array;  (** indexed by [Index.entry.id] *)
  idx : Index.t;
}

let get t (e : Index.entry) = t.effs.(e.id)

(* Local handler scan: does this body contain a case that
   [Callgraph.case_swallows]?  The per-site checks use the same
   classifier; here it seeds the summary. *)
let local_swallows (body : Parsetree.expression) =
  let swa = ref false and swc = ref false in
  let check_case ~what c =
    let catch_all, crash = Callgraph.case_swallows ~what c in
    if catch_all then swa := true;
    if crash then swc := true
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_try (_, cases) -> List.iter (check_case ~what:`Try) cases
          | Pexp_match (_, cases) -> List.iter (check_case ~what:`Match) cases
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter body;
  (!swa, !swc)

let scope_of (e : Index.entry) =
  match List.rev e.path with _ :: tl -> List.rev tl | [] -> []

(* Transaction entry points are {e barriers}: effects never propagate
   through a call to [atomic] or [Retry_loop.run].  The engine's commit
   path legitimately ends in [Tvar.unsafe_write] (that is where writes
   install) and [Serial.enter] — reaching those *through the engine* is
   safe by construction, and without the barrier every function that
   runs a transaction would summarize as escaping. *)
let is_barrier (e : Index.entry) =
  e.name = "atomic" || last2 e.path = [ "Retry_loop"; "run" ]

let compute (idx : Index.t) : t =
  let n = Array.length idx.Index.entries in
  let effs =
    Array.init n (fun _ ->
        { escapes = None; swallows_abort = None; swallows_crash = None;
          acquires_lock = None })
  in
  (* Edges: entry id -> resolved callee ids (deduped); built once. *)
  let callees = Array.make n [] in
  Array.iter
    (fun (e : Index.entry) ->
      let ms = Callgraph.mentions e.body in
      let eff = effs.(e.id) in
      (* Seeds. *)
      if List.mem e.name escape_names then eff.escapes <- Some [];
      List.iter
        (fun (m : Callgraph.mention) ->
          let final = List.nth m.m_path (List.length m.m_path - 1) in
          if List.length m.m_path >= 2 && List.mem final escape_names then
            (* Qualified escape mention: dangerous whether or not the
               module resolves (functor parameters, foreign modules). *)
            (if eff.escapes = None then
               eff.escapes <- Some [ Index.join m.m_path ]);
          if is_acquire_path m.m_path && eff.acquires_lock = None then
            eff.acquires_lock <- Some [ Index.join m.m_path ])
        ms;
      let swa, swc = local_swallows e.body in
      if swa then eff.swallows_abort <- Some [];
      if swc then eff.swallows_crash <- Some [];
      (* Edges. *)
      let scope = scope_of e in
      let tgt = Hashtbl.create 8 in
      List.iter
        (fun (m : Callgraph.mention) ->
          List.iter
            (fun (g : Index.entry) ->
              if g.id <> e.id && not (is_barrier g) then
                Hashtbl.replace tgt g.id ())
            (Callgraph.resolve idx ~file:e.file ~scope m.m_path))
        ms;
      callees.(e.id) <- Hashtbl.fold (fun id () acc -> id :: acc) tgt [])
    idx.Index.entries;
  (* Reverse edges for the worklist. *)
  let callers = Array.make n [] in
  Array.iteri
    (fun i cs -> List.iter (fun j -> callers.(j) <- i :: callers.(j)) cs)
    callees;
  let queue = Queue.create () in
  let on_queue = Array.make n false in
  let enqueue i =
    if not on_queue.(i) then begin
      on_queue.(i) <- true;
      Queue.push i queue
    end
  in
  Array.iteri (fun i _ -> enqueue i) effs;
  let display (g : Index.entry) = Index.join g.path in
  let cap_chain c = if List.length c > 5 then [] else c in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    on_queue.(i) <- false;
    let ei = effs.(i) in
    let changed = ref false in
    List.iter
      (fun j ->
        let g = Index.entry idx j and ej = effs.(j) in
        let pull get set =
          match (get ej, get ei) with
          | Some chain, None ->
            set ei (Some (display g :: cap_chain chain));
            changed := true
          | _ -> ()
        in
        pull (fun e -> e.escapes) (fun e v -> e.escapes <- v);
        pull (fun e -> e.swallows_abort) (fun e v -> e.swallows_abort <- v);
        pull (fun e -> e.swallows_crash) (fun e v -> e.swallows_crash <- v);
        pull (fun e -> e.acquires_lock) (fun e v -> e.acquires_lock <- v))
      callees.(i);
    if !changed then List.iter enqueue callers.(i)
  done;
  { effs; idx }

let chain_to_string name = function
  | [] -> name
  | c -> name ^ " -> " ^ String.concat " -> " c
