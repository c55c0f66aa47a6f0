(** The engine attempt skeleton: the transaction lifecycle every engine
    shares, written once.

    The engines differ only in what they track and validate — the tvar
    engine ({!Oestm.Make}: OE-STM's elastic window and outheritance,
    View-STM's critical view, the lock timing and interval extension of
    TL2/LSA/SwissTM, and its versioned commit) and boosting's abstract
    locks.  Everything around that is the same and lives here:

    - the {b top-level bracket} ({!Make}): the retry loop, the per-instance
      current-transaction key (context-switched by the deterministic
      scheduler), the per-domain scratch sets, registry publication, the
      sanitizer's lifecycle callbacks, event recording, and the three ways
      an attempt ends — commit, crash (forget the locks), anything else
      (abort: restore the locks, roll back);
    - the {b nested bracket} ({!Make}): a child transaction id, its
      recorded begin/commit, and the current-context switch around the
      engine's merge step.

    DESIGN.md §5k states the ordering contract these brackets keep. *)

(** What an engine supplies to the attempt brackets. *)
module type ENGINE = sig
  type ctx
  (** The engine's handle on a running transaction level. *)

  type scratch
  (** Reusable per-attempt storage (read/write sets).  One value per
      domain and engine instance, cleared before each top-level attempt;
      simulated runs get a fresh one per attempt, because one domain then
      multiplexes logical processes that must not share mutable state. *)

  val stats : Stats.t
  val create_scratch : unit -> scratch
  val clear_scratch : scratch -> unit

  val start :
    scratch -> Stm_intf.mode -> owner:int -> rec_state:Txrec.t option -> ctx
  (** Begin: the root context of a top-level attempt whose lock-owner and
      transaction id is [owner]. *)

  val commit : ctx -> unit
  (** Commit the root, or raise {!Control.Abort_tx}. *)

  val abort : ctx -> unit
  (** Undo whatever the attempt still holds: restore locks, roll back. *)

  val forget : ctx -> unit
  (** Simulated crash: drop the attempt's locks {e without} releasing them,
      so recovery has orphans to reclaim. *)

  val rec_state : ctx -> Txrec.t option

  val tx_id : ctx -> int
  (** The innermost transaction id [ctx] currently records under. *)

  val enter : ctx -> Stm_intf.mode -> tx:int -> ctx
  (** Open a child level with transaction id [tx].  Engines whose levels
      share one context return the parent itself. *)

  val validate_child : ctx -> unit
  (** Child commit, before its commit event; may abort. *)

  val merge : parent:ctx -> parent_tx:int -> ctx -> unit
  (** Child commit, after its commit event: fold the child into [parent]
      ([parent_tx] is [tx_id parent] from before {!enter}). *)
end

module Make (E : ENGINE) : sig
  val in_transaction : unit -> bool

  val atomic : Stm_intf.mode -> (E.ctx -> 'a) -> 'a
  (** Run [f] as a top-level transaction to commit, or as a child of the
      transaction this engine instance is running on the current logical
      process.  A child ending in an exception other than an abort or a
      crash is closed as committed before the exception propagates: flat
      nesting keeps its effects in the parent. *)
end = struct
  let current : E.ctx option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let () =
    Runtime.register_tls
      ~save:(fun () -> Obj.repr (Domain.DLS.get current))
      ~restore:(fun o -> Domain.DLS.set current (Obj.obj o : E.ctx option))

  let in_transaction () = Option.is_some (Domain.DLS.get current)

  (* Per-domain scratch sets, reused across every top-level transaction
     the domain runs: retries stop re-growing the backing stores from
     their initial capacity, which dominates read-heavy workloads.
     Clearing wipes freed slots, so reuse does not pin dead tvars. *)
  let scratch = Domain.DLS.new_key E.create_scratch

  let fresh_scratch () =
    if !Runtime.simulated then E.create_scratch ()
    else begin
      let s = Domain.DLS.get scratch in
      E.clear_scratch s;
      s
    end

  (* One top-level attempt.  Publication precedes the body's first lock;
     [Registry.clear] follows the commit's or the abort's last release. *)
  let attempt mode f =
    let owner = Runtime.fresh_tx_id () in
    let rec_state = Txrec.create () in
    let ctx = E.start (fresh_scratch ()) mode ~owner ~rec_state in
    Domain.DLS.set current (Some ctx);
    if !Runtime.recovery then Registry.publish ~owner;
    if !Runtime.sanitizer then Sanitizer.tx_begin ~owner;
    Txrec.begin_tx rec_state ~tx:owner;
    (* The commit itself can abort, so it must run inside the cleanup
       handler, not in the success branch of a match on [f ctx]. *)
    try
      let result = f ctx in
      E.commit ctx;
      if !Runtime.sanitizer then Sanitizer.tx_end ~owner;
      if !Runtime.recovery then Registry.clear ();
      Domain.DLS.set current None;
      result
    with
    | Control.Crashed as e ->
      (* Simulated domain death: leave every held lock locked (that is the
         point — recovery must reclaim them), but detach them from the
         attempt and mark the registry slot dead so contenders see a
         legitimate victim. *)
      E.forget ctx;
      if !Runtime.recovery then Registry.mark_crashed ();
      if !Runtime.sanitizer then Sanitizer.tx_crashed ~owner;
      Domain.DLS.set current None;
      raise e
    | e ->
      E.abort ctx;
      Txrec.abort_open rec_state;
      if !Runtime.sanitizer then Sanitizer.tx_end ~owner;
      if !Runtime.recovery then Registry.clear ();
      Domain.DLS.set current None;
      raise e

  (* Child commit: also the exit of a child left by a user exception,
     whose effects flat nesting keeps in the parent. *)
  let close_child cur ~parent ~parent_tx ~rec_state ~tx child =
    E.validate_child child;
    Txrec.commit_tx rec_state ~tx;
    E.merge ~parent ~parent_tx child;
    if child != parent then Domain.DLS.set current cur

  let nested cur parent mode f =
    let tx = Runtime.fresh_tx_id () in
    let parent_tx = E.tx_id parent in
    let rec_state = E.rec_state parent in
    Txrec.begin_tx rec_state ~tx;
    let child = E.enter parent mode ~tx in
    if child != parent then Domain.DLS.set current (Some child);
    match f child with
    | result ->
      close_child cur ~parent ~parent_tx ~rec_state ~tx child;
      result
    | exception ((Control.Abort_tx _ | Control.Crashed) as e) ->
      (* Aborts and crashes unwind the whole attempt (flat nesting): the
         top-level bracket closes every open level. *)
      if child != parent then Domain.DLS.set current cur;
      raise e
    | exception e ->
      close_child cur ~parent ~parent_tx ~rec_state ~tx child;
      raise e

  let atomic mode f =
    match Domain.DLS.get current with
    | Some parent as cur -> nested cur parent mode f
    | None -> Retry_loop.run ~stats:E.stats (fun ~attempt:_ -> attempt mode f)
end
