(** The engine attempt skeleton: the transaction lifecycle every engine
    shares, written once.

    The engines differ only in what they track and validate — the elastic
    window and outheritance of OE-STM, the critical view of View-STM, lock
    timing and interval extension of TL2/LSA/SwissTM, the abstract locks
    of boosting.  Everything around that is the same and lives here:

    - the {b top-level bracket} ({!Make}): the retry loop, the per-instance
      current-transaction key (context-switched by the deterministic
      scheduler), the per-domain scratch sets, registry publication, the
      sanitizer's lifecycle callbacks, event recording, and the three ways
      an attempt ends — commit, crash (forget the locks), anything else
      (abort: restore the locks, roll back);
    - the {b nested bracket} ({!Make}): a child transaction id, its
      recorded begin/commit, and the current-context switch around the
      engine's merge step;
    - the {b versioned commit} ({!Versioned}) of the three tvar engines:
      serial gate, poison check, lock the write set, tick the clock,
      validate, last poison check, install, stage the durable record.

    DESIGN.md §5k states the ordering contract these brackets keep. *)

(** The escape hatches and tvar constructors of {!Stm_intf.S}, re-exported
    once for every tvar engine ([include Attempt.Tvars]). *)
module Tvars = struct
  let tvar = Tvar.make
  let peek = Tvar.peek
  [@@txlint.allow "stm-escape"
       "re-export of the quiescent escape hatch; callers are linted at \
        their own sites"]

  let unsafe_write = Tvar.unsafe_write
  [@@txlint.allow "stm-escape"
       "re-export of the quiescent escape hatch; callers are linted at \
        their own sites"]

  let tvar_id = Tvar.id
end

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

(** What a tvar engine supplies to the versioned commit. *)
module type VERSIONED = sig
  type ctx

  val stats : Stats.t
  val owner : ctx -> int
  val wset : ctx -> Rwsets.Wset.t
  val rec_state : ctx -> Txrec.t option

  val validate : ctx -> bool
  (** Full read validation of a writing commit, with its locks held and
      the clock ticked (full scan: the commit decides against the new
      write version). *)

  val validate_read_only : ctx -> bool
  (** Whether a commit with an empty write set may succeed. *)

  val iter_reads : ctx -> (Rwsets.rentry -> unit) -> unit
  (** Every tracked read entry, for the sanitizer's stale-commit check. *)

  val reads : ctx -> int
  (** Tracked reads at commit, for the read-set-size histogram. *)
end

(** The versioned commit, then the recorded commit event and the footprint
    histograms (detailed statistics only); [abort] releases the write
    set's locks, restoring their stamps; [forget] detaches them, leaving
    them held. *)
module Versioned (V : VERSIONED) = struct
  let commit ctx =
    Runtime.schedule_point ();
    (* Serial-irrevocable gate (see Retry_loop): while another process
       holds the fallback token no one else may commit.  Abort rather than
       block, so any locks this transaction holds are released for the
       token holder. *)
    if not (Runtime.Serial.commit_allowed ()) then
      Control.abort_tx Control.Killed;
    if !Runtime.recovery then Recovery.check_poisoned ();
    let owner = V.owner ctx and wset = V.wset ctx in
    if Rwsets.Wset.is_empty wset then begin
      if not (V.validate_read_only ctx) then
        Control.abort_tx Control.Validation_failed
    end
    else begin
      if not (Rwsets.Wset.lock_all wset ~owner) then
        Control.abort_tx Control.Lock_contention;
      (* The locks are held, so [max_version] is stable: it is the GV5
         floor keeping write versions strictly above anything already
         installed at these locations (GV1/GV4 never consult it). *)
      let wv = Clock.tick ~floor:(fun () -> Rwsets.Wset.max_version wset) () in
      if not (V.validate ctx) then begin
        Rwsets.Wset.unlock_all_restore wset;
        Control.abort_tx Control.Validation_failed
      end;
      if !Runtime.sanitizer then
        Sanitizer.on_commit ~owner ~wv (V.iter_reads ctx);
      (* Last poison check while the locks are still held: a doomed victim
         must abort here, before installing over a stolen lock.  (The
         abort releases cleanly: CAS-based unlocks skip stolen entries.) *)
      if !Runtime.recovery then begin
        try Recovery.check_poisoned ()
        with e ->
          Rwsets.Wset.unlock_all_restore wset;
          raise e
      end;
      Rwsets.Wset.install_and_unlock wset ~wv;
      (* Post-install: stage the durable entries for the WAL.  Retry_loop
         fires the record once this attempt's outcome is a definitive
         commit, and discards it if anything below still aborts. *)
      if !Runtime.durability then
        Durable.stage ~wv (Rwsets.Wset.capture_durable wset)
    end;
    let rec_state = V.rec_state ctx in
    Txrec.commit_tx rec_state ~tx:owner;
    Txrec.release_remaining rec_state;
    if Stats.detailed_enabled () then
      Stats.record_rwset_sizes V.stats ~reads:(V.reads ctx)
        ~writes:(Rwsets.Wset.size wset)

  let abort ctx = Rwsets.Wset.unlock_all_restore (V.wset ctx)
  let forget ctx = Rwsets.Wset.forget_locks (V.wset ctx)
end
