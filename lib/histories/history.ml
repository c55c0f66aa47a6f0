(** Histories: finite sequences of events, with the derived notions of
    Section II (committed/aborted/live transactions, the precedence order
    [<H], minimal protected sets, kernels, relax-seriality). *)

open Event

type t = Event.t array

let of_list = Array.of_list
let to_list = Array.to_list
let length = Array.length
let events = Array.to_list

let pp ppf (h : t) =
  Array.iteri (fun i e -> Format.fprintf ppf "%3d: %a@." i Event.pp e) h

(* ------------------------------------------------------------------ *)
(* Transactions and processes                                         *)

let proc_of_event = function
  | Begin { proc; _ } | Commit { proc; _ } | Abort { proc; _ }
  | Acquire { proc; _ } | Release { proc; _ } ->
    Some proc
  | Op _ -> None

let tx_of_event = function
  | Begin { tx; _ } | Commit { tx; _ } | Abort { tx; _ } | Op { tx; _ } ->
    Some tx
  | Acquire _ | Release _ -> None

let transactions h =
  Array.to_list h
  |> List.filter_map (function Begin { tx; _ } -> Some tx | _ -> None)

let committed h =
  Array.to_list h
  |> List.filter_map (function Commit { tx; _ } -> Some tx | _ -> None)

let aborted h =
  Array.to_list h
  |> List.filter_map (function Abort { tx; _ } -> Some tx | _ -> None)

let live h =
  let ended = committed h @ aborted h in
  List.filter (fun t -> not (List.mem t ended)) (transactions h)

let complete h = live h = []

let proc_of_tx h tx =
  let found =
    Array.to_list h
    |> List.find_map (function
         | Begin { tx = t; proc } when t = tx -> Some proc
         | _ -> None)
  in
  match found with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "History.proc_of_tx: no begin for t%d" tx)

let procs h =
  transactions h |> List.map (proc_of_tx h) |> List.sort_uniq compare

(* Index of an event satisfying [p], if any. *)
let find_index_opt p (h : t) =
  let n = Array.length h in
  let rec go i = if i >= n then None else if p h.(i) then Some i else go (i + 1) in
  go 0

let begin_pos h tx =
  find_index_opt (function Begin { tx = t; _ } -> t = tx | _ -> false) h

let commit_pos h tx =
  find_index_opt (function Commit { tx = t; _ } -> t = tx | _ -> false) h

(* ------------------------------------------------------------------ *)
(* Projections                                                        *)

(** Events involving process [p] (operations are attributed through their
    transaction). *)
let by_proc h p =
  Array.to_list h
  |> List.filter (fun e ->
         match proc_of_event e with
         | Some q -> q = p
         | None -> (
           match tx_of_event e with
           | Some tx -> proc_of_tx h tx = p
           | None -> false))

let objects h =
  Array.to_list h
  |> List.filter_map (function Op { obj; _ } -> Some obj | _ -> None)
  |> List.sort_uniq compare

let pes h =
  Array.to_list h
  |> List.filter_map (function
       | Acquire { pe; _ } | Release { pe; _ } -> Some pe
       | _ -> None)
  |> List.sort_uniq compare

(** Operation events of committed transactions, in history order. *)
let committed_ops h =
  let c = committed h in
  Array.to_list h
  |> List.filter (function Op { tx; _ } -> List.mem tx c | _ -> false)

(* ------------------------------------------------------------------ *)
(* Precedence                                                          *)

(** [t <H t']: commit of [t] precedes begin of [t']. *)
let precedes h t t' =
  match (commit_pos h t, begin_pos h t') with
  | Some c, Some b -> c < b
  | _ -> false

(** All [<H] pairs among committed transactions. *)
let precedence_pairs h =
  let cs = committed h in
  List.concat_map
    (fun t -> List.filter_map (fun t' -> if precedes h t t' then Some (t, t') else None) cs)
    cs

let concurrent h t t' =
  match (begin_pos h t, begin_pos h t', commit_pos h t) with
  | Some bt, Some bt', Some ct -> bt < bt' && bt' < ct
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Legality and relax-seriality                                        *)

(** Every object's committed operation sequence, taken in history order, is
    acceptable sequential behaviour.  (Meaningful for relax-serial or serial
    histories.) *)
let legal ~env h =
  List.for_all
    (fun o ->
      let spec : Spec.t = env o in
      let pairs =
        committed_ops h
        |> List.filter_map (function
             | Op { obj; op; value; _ } when obj = o -> Some (op, value)
             | _ -> None)
      in
      Spec.accepts spec pairs)
    (objects h)

(** Relax-serial (Section II.B): for every protection element, the
    subsequence of acquire and release events is an alternation of matching
    pairs starting with an acquire. *)
let relax_serial h =
  List.for_all
    (fun pe ->
      let evs =
        Array.to_list h
        |> List.filter_map (function
             | Acquire { pe = q; proc } when q = pe -> Some (`A, proc)
             | Release { pe = q; proc } when q = pe -> Some (`R, proc)
             | _ -> None)
      in
      let rec go held = function
        | [] -> true
        | (`A, p) :: rest -> ( match held with None -> go (Some p) rest | Some _ -> false)
        | (`R, p) :: rest -> (
          match held with Some q when q = p -> go None rest | _ -> false)
      in
      go None evs)
    (pes h)

(** A history is sequential when no two transactions are concurrent. *)
let sequential h =
  let ts = transactions h in
  List.for_all
    (fun t -> List.for_all (fun t' -> t = t' || not (concurrent h t t')) ts)
    ts

(* ------------------------------------------------------------------ *)
(* Minimal protected sets                                              *)

(** The minimal protected set of committed transaction [t] (Section II.A):
    protection elements acquired by [t]'s process between [t]'s begin and
    commit whose matching release (the next release of that element by the
    same process) comes after the commit — or never comes. *)
let pmin h tx =
  match (begin_pos h tx, commit_pos h tx) with
  | Some b, Some c ->
    let p = proc_of_tx h tx in
    let n = Array.length h in
    let result = ref [] in
    for i = b + 1 to c - 1 do
      match h.(i) with
      | Acquire { pe; proc } when proc = p ->
        let rec next_release j =
          if j >= n then None
          else
            match h.(j) with
            | Release { pe = q; proc = pr } when q = pe && pr = p -> Some j
            | _ -> next_release (j + 1)
        in
        let released_before_commit =
          match next_release (i + 1) with Some j -> j < c | None -> false
        in
        if (not released_before_commit) && not (List.mem pe !result) then
          result := pe :: !result
      | _ -> ()
    done;
    List.rev !result
  | _ -> []

(** [ker t] — objects whose protection element is in [Pmin(t)].  Protection
    element ids coincide with object ids in our model. *)
let kernel = pmin

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)

let well_formed h =
  let open struct
    exception Bad of string
  end in
  try
    (* Unique begins; commits/aborts/ops refer to begun transactions of the
       right process; per process, begins/commits nest like brackets. *)
    let begun = Hashtbl.create 16 in
    let stack : (int, int list) Hashtbl.t = Hashtbl.create 4 in
    let get_stack p = Option.value ~default:[] (Hashtbl.find_opt stack p) in
    Array.iter
      (fun e ->
        match e with
        | Begin { tx; proc } ->
          if Hashtbl.mem begun tx then
            raise (Bad (Printf.sprintf "duplicate begin of t%d" tx));
          Hashtbl.add begun tx proc;
          Hashtbl.replace stack proc (tx :: get_stack proc)
        | Commit { tx; proc } | Abort { tx; proc } -> (
          match get_stack proc with
          | top :: rest when top = tx -> Hashtbl.replace stack proc rest
          | _ ->
            raise
              (Bad
                 (Printf.sprintf "t%d ends on p%d without being innermost" tx
                    proc)))
        | Op { tx; _ } -> (
          match Hashtbl.find_opt begun tx with
          | None -> raise (Bad (Printf.sprintf "op of unbegun t%d" tx))
          | Some p ->
            if not (List.mem tx (get_stack p)) then
              raise (Bad (Printf.sprintf "op of finished t%d" tx)))
        | Acquire _ | Release _ -> ())
      h;
    Ok ()
  with Bad msg -> Error msg
