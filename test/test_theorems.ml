(* Randomised checks of the paper's theorems over generated histories.

   A generator builds small two-process executions: each process runs a
   few transactions over shared registers, acquiring each object's
   protection element before operating on it and releasing it either
   eagerly (after the operation), at commit (classic), or late (held past
   commit, as outherited protection).  Values are assigned by replaying
   the generated interleaving against register semantics, so every
   generated history is an actual execution of *some* machine.

   Properties checked on every generated history H with composition C =
   (the committed transactions of process 1):

   - Theorem 4.4: H relax-serializable and H satisfies outheritance
     w.r.t. C   ==>   H weakly composable w.r.t. C;
   - soundness of the searches: a history that is its own relax-serial
     witness is reported relax-serializable;
   - strong composability implies weak composability (Defs 3.1/3.2). *)

open Histories
open Event

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

type release_policy = Eager | At_commit | Late

type gen_op_spec = {
  obj_id : int;
  is_write : bool;
  policy : release_policy;
}

type gen_tx_spec = { ops : gen_op_spec list }
type gen_proc_spec = { txs : gen_tx_spec list }

let spec_gen =
  let open QCheck.Gen in
  let op_spec =
    map3
      (fun obj_id is_write p ->
        let policy = match p with 0 -> Eager | 1 -> At_commit | _ -> Late in
        { obj_id; is_write; policy })
      (int_bound 2) bool (int_bound 2)
  in
  let tx_spec = map (fun ops -> { ops }) (list_size (int_range 1 3) op_spec) in
  let proc_spec = map (fun txs -> { txs }) (list_size (int_range 1 3) tx_spec) in
  pair proc_spec proc_spec

(* Lay the two processes' events out in a random but per-process-ordered
   interleaving, computing read values by replaying register semantics.
   Late releases are attached after the *last* commit of the process
   (modelling protection held to the end of a composition). *)
let build_history seed ((p1, p2) : gen_proc_spec * gen_proc_spec) =
  let rng = ref (seed lor 1) in
  let next_bool () =
    rng := (!rng * 48271) mod 2147483647;
    !rng land 1 = 1
  in
  let next_tx =
    let c = ref 0 in
    fun () ->
      incr c;
      !c
  in
  (* Per-process event scripts, as closures over the replay state. *)
  let script proc_id (p : gen_proc_spec) =
    let events = ref [] in
    let emit e = events := e :: !events in
    let late = ref [] in
    List.iter
      (fun txs ->
        let tx = next_tx () in
        emit (`Begin tx);
        List.iter
          (fun (op : gen_op_spec) ->
            emit (`Acquire op.obj_id);
            emit (`Op (tx, op.obj_id, op.is_write));
            match op.policy with
            | Eager -> emit (`Release op.obj_id)
            | At_commit -> emit (`After_commit op.obj_id)
            | Late -> late := op.obj_id :: !late)
          txs.ops;
        emit (`Commit tx))
      p.txs;
    (proc_id, List.rev !events @ List.map (fun o -> `Release_late o) !late)
  in
  let s1 = script 1 p1 and s2 = script 2 p2 in
  (* Interleave, expanding the pseudo-events.  [`After_commit] releases are
     postponed to just after the transaction's commit event; [held] tracks
     per-process holds so acquire/release stay balanced per process. *)
  let expand (proc, evs) =
    let out = ref [] in
    let pending = ref [] in
    List.iter
      (fun e ->
        match e with
        | `Begin tx -> out := Begin { tx; proc } :: !out
        | `Commit tx ->
          out := Commit { tx; proc } :: !out;
          List.iter (fun o -> out := Release { pe = o; proc } :: !out) !pending;
          pending := []
        | `Acquire o -> out := Acquire { pe = o; proc } :: !out
        | `Release o -> out := Release { pe = o; proc } :: !out
        | `After_commit o -> pending := o :: !pending
        | `Op (tx, o, w) -> out := Op { obj = o; tx; op = op "placeholder"; value = w |> Bool.to_int } :: !out
        | `Release_late o -> out := Release { pe = o; proc } :: !out)
      evs;
    List.rev !out
  in
  let e1 = ref (expand s1) and e2 = ref (expand s2) in
  (* A process may only hold each pe once; drop double-acquires that would
     make the script malformed (acquire while already held by self). *)
  let sanitise evs =
    let held = Hashtbl.create 4 in
    List.filter
      (fun e ->
        match e with
        | Acquire { pe; _ } ->
          if Hashtbl.mem held pe then false
          else begin
            Hashtbl.add held pe ();
            true
          end
        | Release { pe; _ } ->
          if Hashtbl.mem held pe then begin
            Hashtbl.remove held pe;
            true
          end
          else false
        | _ -> true)
      evs
  in
  e1 := sanitise !e1;
  e2 := sanitise !e2;
  (* Random merge + value replay. *)
  let registers = Hashtbl.create 4 in
  let write_counter = ref 100 in
  let out = ref [] in
  let value_replay e =
    match e with
    | Op { obj; tx; op = _; value = is_write } ->
      if is_write = 1 then begin
        incr write_counter;
        let v = !write_counter in
        Hashtbl.replace registers obj v;
        Op { obj; tx; op = Event.op ~arg:v "write"; value = v }
      end
      else
        let v = Option.value ~default:0 (Hashtbl.find_opt registers obj) in
        Op { obj; tx; op = Event.op "read"; value = v }
    | e -> e
  in
  let rec merge () =
    match (!e1, !e2) with
    | [], [] -> ()
    | x :: r1, [] ->
      e1 := r1;
      out := value_replay x :: !out;
      merge ()
    | [], y :: r2 ->
      e2 := r2;
      out := value_replay y :: !out;
      merge ()
    | x :: r1, y :: r2 ->
      if next_bool () then begin
        e1 := r1;
        out := value_replay x :: !out
      end
      else begin
        e2 := r2;
        out := value_replay y :: !out
      end;
      merge ()
  in
  merge ();
  History.of_list (List.rev !out)

let env : Spec.env = fun _ -> Spec.register ~init:0

let outcome_bool = function
  | Search.Witness_found -> Some true
  | Search.No_witness -> Some false
  | Search.Unknown -> None

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let composition_of h =
  let of_p1 =
    List.filter (fun t -> History.proc_of_tx h t = 1) (History.committed h)
  in
  if List.length of_p1 >= 2 then
    match Composition.make h of_p1 with Ok c -> Some c | Error _ -> None
  else None

(* Every property draws a (seed, spec) case.  A failing case prints the
   seed, the history it builds and the composition under test, so a CI
   failure shows its counterexample. *)
let print_case (seed, spec) =
  let h = build_history seed spec in
  let members =
    match composition_of h with
    | Some c -> Composition.members c
    | None -> []
  in
  Format.asprintf "interleaving seed %d@\n%acomposition {%s}" seed History.pp h
    (String.concat ", " (List.map (Printf.sprintf "t%d") members))

let case_arb = QCheck.(set_print print_case (pair small_int (make spec_gen)))

let prop_theorem_4_4 =
  QCheck.Test.make ~name:"Theorem 4.4: outheritance => weakly composable"
    ~count:300 case_arb
    (fun (seed, spec) ->
      let h = build_history seed spec in
      match History.well_formed h with
      | Error _ -> true (* generator produced junk; vacuous *)
      | Ok () -> (
        match composition_of h with
        | None -> true
        | Some c -> (
          match
            (outcome_bool (Serializability.relax_serializable ~budget:200_000 ~env h),
             Outheritance.satisfies h c)
          with
          | Some true, true -> (
            match
              outcome_bool (Composition.weakly_composable ~budget:200_000 ~env h c)
            with
            | Some b -> b
            | None -> true)
          | _ -> true)))

let prop_self_witness =
  QCheck.Test.make
    ~name:"a legal relax-serial history is relax-serializable" ~count:300
    case_arb
    (fun (seed, spec) ->
      let h = build_history seed spec in
      match History.well_formed h with
      | Error _ -> true
      | Ok () ->
        if History.relax_serial h && History.legal ~env h then
          outcome_bool (Serializability.relax_serializable ~budget:200_000 ~env h)
          <> Some false
        else true)

let prop_strong_implies_weak =
  QCheck.Test.make ~name:"strongly composable => weakly composable" ~count:150
    case_arb
    (fun (seed, spec) ->
      let h = build_history seed spec in
      match History.well_formed h with
      | Error _ -> true
      | Ok () -> (
        match composition_of h with
        | None -> true
        | Some c -> (
          match
            outcome_bool (Composition.strongly_composable ~budget:200_000 ~env h c)
          with
          | Some true ->
            outcome_bool (Composition.weakly_composable ~budget:200_000 ~env h c)
            <> Some false
          | _ -> true)))

(* Guard against vacuity: the implications above are only worth anything
   if the generator regularly produces histories where their premises
   hold.  Sample the generator and require healthy branch coverage. *)
let test_generator_not_vacuous () =
  let gen = QCheck.Gen.pair (QCheck.Gen.int_bound 10_000) spec_gen in
  let rand = Random.State.make [| 7 |] in
  let total = 400 in
  let wf = ref 0 and with_comp = ref 0 and premise_4_4 = ref 0 in
  for _ = 1 to total do
    let seed, spec = QCheck.Gen.generate1 ~rand gen in
    let h = build_history seed spec in
    match History.well_formed h with
    | Error _ -> ()
    | Ok () -> (
      incr wf;
      match composition_of h with
      | None -> ()
      | Some c ->
        incr with_comp;
        if
          Outheritance.satisfies h c
          && outcome_bool (Serializability.relax_serializable ~budget:200_000 ~env h)
             = Some true
        then incr premise_4_4)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most generated histories are well-formed (%d/%d)" !wf total)
    true
    (!wf > total / 2);
  Alcotest.(check bool)
    (Printf.sprintf "compositions are common (%d/%d)" !with_comp total)
    true
    (!with_comp > total / 4);
  Alcotest.(check bool)
    (Printf.sprintf "Theorem 4.4's premise is exercised (%d/%d)" !premise_4_4
       total)
    true
    (!premise_4_4 > total / 10)

let suite =
  [ Alcotest.test_case "generator is not vacuous" `Quick
      test_generator_not_vacuous;
    QCheck_alcotest.to_alcotest prop_theorem_4_4;
    QCheck_alcotest.to_alcotest prop_self_witness;
    QCheck_alcotest.to_alcotest prop_strong_implies_weak ]
