type t = {
  proc : int;
  held : (int, int) Hashtbl.t;  (* pe -> hold count *)
  mutable open_txs : int list;  (* innermost first *)
}

let create () =
  if Recorder.enabled () then
    Some { proc = Runtime.current_proc (); held = Hashtbl.create 8; open_txs = [] }
  else None

let begin_tx t ~tx =
  match t with
  | None -> ()
  | Some t ->
    t.open_txs <- tx :: t.open_txs;
    Recorder.emit (Begin { tx; proc = t.proc })

let commit_tx t ~tx =
  match t with
  | None -> ()
  | Some t ->
    (match t.open_txs with
    | hd :: tl when hd = tx -> t.open_txs <- tl
    | _ -> invalid_arg "Txrec.commit_tx: transaction is not innermost");
    Recorder.emit (Commit { tx; proc = t.proc })

let emit_release t pe = Recorder.emit (Release { pe; proc = t.proc })

let release_remaining t =
  match t with
  | None -> ()
  | Some t ->
    Hashtbl.iter (fun pe count -> if count > 0 then emit_release t pe) t.held;
    Hashtbl.reset t.held

let abort_open t =
  match t with
  | None -> ()
  | Some r ->
    List.iter (fun tx -> Recorder.emit (Abort { tx; proc = r.proc })) r.open_txs;
    r.open_txs <- [];
    release_remaining t

let acquire t ~pe =
  match t with
  | None -> ()
  | Some t ->
    let count = Option.value ~default:0 (Hashtbl.find_opt t.held pe) in
    if count = 0 then Recorder.emit (Acquire { pe; proc = t.proc });
    Hashtbl.replace t.held pe (count + 1)

let release t ~pe =
  match t with
  | None -> ()
  | Some t ->
    let count = Option.value ~default:0 (Hashtbl.find_opt t.held pe) in
    if count <= 1 then begin
      Hashtbl.remove t.held pe;
      if count = 1 then emit_release t pe
    end
    else Hashtbl.replace t.held pe (count - 1)

(* The fingerprint is taken inside the [Some] branch: [Hashtbl.hash] walks
   the value (on a list node, into the next node's tvar and lock), and an
   eagerly evaluated argument would pay that on every read with no sink
   installed. *)
let read t ~tx ~pe v =
  match t with
  | None -> ()
  | Some _ ->
    Recorder.emit (Read { pe; tx; value_repr = Recorder.repr_of_value v })

let write t ~tx ~pe v =
  match t with
  | None -> ()
  | Some _ ->
    Recorder.emit (Write { pe; tx; value_repr = Recorder.repr_of_value v })
