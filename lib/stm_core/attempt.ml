(** The engine attempt skeleton: the transaction lifecycle every engine
    shares, written once.

    The engines differ only in what they track and validate — the tvar
    engine ({!Oestm.Make}: OE-STM's elastic window and outheritance,
    View-STM's critical view, the lock timing and interval extension of
    TL2/LSA/SwissTM, and its versioned commit) and boosting's abstract
    locks.  Everything around that is the same and lives here:

    - the {b top-level bracket} ({!Make}): the retry policy (deadline,
      parking behind the serial token, backoff, retry cap, escalation),
      the per-instance current-transaction key and scratch sets (both
      per-process locals, switched by the deterministic scheduler), and one
      handler per attempt.  The handler owns what every engine's attempt
      does alike: registry publication, the sanitizer's lifecycle
      callbacks and abort audit, event recording, the fault window, the
      statistics, the write-ahead-log record, the GV5 abort bump, the
      commit's entry poison check and its final recorded releases.  Its
      four arms are the four ways an attempt ends — commit, crash (forget
      the locks), abort (restore the locks, roll back, retry), and any
      other exception (the same undo, then propagate);
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
      process and engine instance (a {!Runtime.local}), cleared before
      each top-level attempt. *)

  val stats : Stats.t
  val create_scratch : unit -> scratch
  val clear_scratch : scratch -> unit

  val start :
    scratch -> Stm_intf.mode -> owner:int -> rec_state:Txrec.t option -> ctx
  (** Begin: the root context of a top-level attempt whose lock-owner and
      transaction id is [owner]. *)

  val commit : ctx -> unit
  (** Commit the root, or raise {!Control.Abort_tx}: the engine's own
      validation and install only.  The bracket makes the entry poison
      check before it, and records the commit and the remaining releases
      after it. *)

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
      nesting keeps its effects in the parent.

      A top-level transaction retries until an attempt commits: each
      {!Control.Abort_tx} is counted in [E.stats] and followed by one
      {!Backoff} wait, until {!Runtime.retry_cap} retries have aborted;
      then, per {!Runtime.starvation_mode}, it escalates to the serial
      token and retries until commit, or raises {!Control.Starvation}.  A
      deadline ({!Runtime.tx_timeout_ns}) that expires first raises
      {!Control.Timeout}.  Any other exception propagates once the
      attempt is undone (DESIGN.md §5d). *)
end = struct
  let current : E.ctx option Domain.DLS.key = Runtime.local (fun () -> None)

  let in_transaction () = Option.is_some (Domain.DLS.get current)

  (* Per-process scratch sets, reused across every top-level transaction
     the process runs: retries stop re-growing the backing stores from
     their initial capacity, which dominates read-heavy workloads.
     Clearing wipes freed slots, so reuse does not pin dead tvars. *)
  let scratch = Runtime.local E.create_scratch

  let cleared_scratch () =
    let s = Domain.DLS.get scratch in
    E.clear_scratch s;
    s

  let starvation_msg = "transaction exceeded retry cap"

  (* Monotonic time as an immediate [int], so the per-attempt stamps are
     passed between the handler's functions without boxing. *)
  let now () = Int64.to_int (Mclock.now_ns ())

  (* The deadline counts from the first attempt: [budget] and the birth
     stamp are read once per transaction, the clock only when a budget is
     set. *)
  let expired budget birth =
    match budget with None -> false | Some b -> now () - birth > b

  let timeout () =
    Stats.record_timeout E.stats;
    raise (Control.Timeout "transaction deadline expired")

  (* The handler's shared tails.  They are plain functions, not closures
     over the attempt, so an attempt allocates no handler state. *)

  (* The attempt no longer runs: unpublish it. *)
  let detach ~owner =
    if Option.is_some Runtime.plane.sanitizer then Sanitizer.tx_end ~owner;
    if Option.is_some Runtime.plane.recovery then Registry.clear ();
    Domain.DLS.set current None

  (* Close the fault window and audit the attempt's aborts: one that ended
     otherwise than [aborted] while the generation moved swallowed one. *)
  let leave ~fi ~san ~g0 ~aborted =
    if fi then Faults.leave_attempt ();
    if san then Sanitizer.audit_attempt ~before:g0 ~aborted

  let rollback ctx rec_state ~owner =
    E.abort ctx;
    Txrec.abort_open rec_state;
    detach ~owner

  (* An exception other than an abort leaves the transaction: nothing is
     retried and nothing reaches the write-ahead log. *)
  let fail ~fi ~san ~g0 =
    leave ~fi ~san ~g0 ~aborted:false;
    if Runtime.plane.durable then Durable.discard_staged ()

  (* One top-level attempt and the one handler that ends it (DESIGN.md
     5k).  Publication precedes the body's first lock; [detach] follows
     the commit's or the abort's last release.  [serial]: the attempt
     runs under the serial token this transaction escalated to. *)
  let rec attempt mode f n backoff serial detailed budget birth =
    if expired budget birth then timeout ();
    (* Park while some other transaction runs serially: our commit would
       be refused anyway, so don't burn an attempt on it. *)
    if
      (not serial) && Runtime.Serial.active () && not (Runtime.Serial.mine ())
    then begin
      let giveup () = expired budget birth in
      if not (Runtime.Serial.await_clear ~giveup ()) then timeout ()
    end;
    let t0 = if detailed then now () else 0 in
    let fi = Option.is_some Runtime.plane.faults in
    let san = Option.is_some Runtime.plane.sanitizer in
    let g0 = if san then Control.abort_generation () else 0 in
    if fi then Faults.enter_attempt ();
    let owner = Runtime.fresh_tx_id () in
    let rec_state = Txrec.create () in
    let ctx = E.start (cleared_scratch ()) mode ~owner ~rec_state in
    Domain.DLS.set current (Some ctx);
    if Option.is_some Runtime.plane.recovery then Registry.publish ~owner;
    if san then Sanitizer.tx_begin ~owner;
    Txrec.begin_tx rec_state ~tx:owner;
    (* The commit itself can abort, so it runs inside the handler. *)
    match
      let result = f ctx in
      if Option.is_some Runtime.plane.recovery then Recovery.check_poisoned ();
      E.commit ctx;
      Txrec.commit_tx rec_state ~tx:owner;
      Txrec.release_remaining rec_state;
      result
    with
    | result ->
      detach ~owner;
      leave ~fi ~san ~g0 ~aborted:false;
      Stats.record_commit E.stats;
      (* The values are installed: fire the record the engine staged (if
         any) into the write-ahead log.  Post-outcome is the only safe
         point — an engine-side append could log an attempt that a later
         validation still aborts. *)
      if Runtime.plane.durable then Durable.on_commit ();
      if detailed then begin
        Stats.record_commit_latency E.stats (now () - t0);
        Stats.record_retry_depth E.stats n
      end;
      result
    | exception (Control.Crashed as e) ->
      (* Simulated domain death: leave every held lock locked (that is the
         point — recovery must reclaim them), but detach them from the
         attempt and mark the registry slot dead so contenders see a
         legitimate victim. *)
      E.forget ctx;
      if Option.is_some Runtime.plane.recovery then Registry.mark_crashed ();
      if Option.is_some Runtime.plane.sanitizer then
        Sanitizer.tx_crashed ~owner;
      Domain.DLS.set current None;
      fail ~fi ~san ~g0;
      raise e
    | exception Control.Abort_tx reason ->
      rollback ctx rec_state ~owner;
      leave ~fi ~san ~g0 ~aborted:true;
      if Runtime.plane.durable then Durable.discard_staged ();
      (* GV5 bumps the clock on aborts (no-op for GV1/GV4): a transaction
         that aborted on a lazily installed future version pulls the clock
         up so its next attempt's read stamp can cover that version. *)
      Clock.on_abort ();
      Stats.record_abort E.stats reason;
      if detailed then Stats.record_abort_latency E.stats (now () - t0);
      retry mode f n backoff serial detailed budget birth
    | exception e ->
      rollback ctx rec_state ~owner;
      fail ~fi ~san ~g0;
      raise e

  (* After the [n]th attempt aborted.  Under the serial token, retry at
     once: no other process can commit, so each attempt faces strictly
     less interference, and only a deadline stops the loop. *)
  and retry mode f n backoff serial detailed budget birth =
    if serial then attempt mode f (n + 1) backoff true detailed budget birth
    else if n >= !Runtime.retry_cap then begin
      (* The cap is exhausted.  No backoff here: under [`Fallback] the
         escalating attempt must run immediately (it is about to serialise
         the world; delaying it only lengthens the stop), and under
         [`Raise] the caller wants the exception. *)
      Stats.record_starvation E.stats;
      match !Runtime.starvation_mode with
      | `Raise -> raise (Control.Starvation starvation_msg)
      | `Fallback -> escalate mode f (n + 1) detailed budget birth
    end
    else begin
      (* The backoff state is created at the first abort that waits, so a
         transaction that commits first time creates none.  A fresh
         transaction id seeds it, so that rival domains draw different
         waits. *)
      let backoff =
        match backoff with
        | Some _ -> backoff
        | None -> Some (Backoff.create ~seed:(Runtime.fresh_tx_id ()) ())
      in
      Option.iter Backoff.once backoff;
      attempt mode f (n + 1) backoff false detailed budget birth
    end

  (* Serial-irrevocable fallback: take the global token, then retry until
     commit.  With the token held no other process can commit (the engines'
     serial gates abort them), so the clock stops advancing, straggler
     locks drain, and fault injection is suppressed. *)
  and escalate mode f n detailed budget birth =
    Stats.record_fallback E.stats;
    if not (Runtime.Serial.enter ~giveup:(fun () -> expired budget birth) ())
    then timeout ();
    Fun.protect ~finally:Runtime.Serial.exit (fun () ->
        attempt mode f n None true detailed budget birth)

  let top mode f =
    (* Read once per transaction: a mid-transaction toggle may miss this
       transaction, but the flag is only flipped between benchmark
       phases. *)
    let detailed = Runtime.plane.detailed in
    let budget = !Runtime.tx_timeout_ns in
    let birth = match budget with None -> 0 | Some _ -> now () in
    attempt mode f 0 None false detailed budget birth

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
    | None -> top mode f
end
