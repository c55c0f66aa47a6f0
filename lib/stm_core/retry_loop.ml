let starvation_msg = "transaction exceeded retry cap"

let run ~stats f =
  (* Read the flag once per transaction: a mid-transaction toggle may miss
     this loop, but the flag is only flipped between benchmark phases. *)
  let detailed = Stats.detailed_enabled () in
  (* The deadline counts from the first attempt.  Its budget and birth
     stamp are read once, here, and the clock only when a budget is set. *)
  let budget = !Runtime.tx_timeout_ns in
  let birth = match budget with None -> 0L | Some _ -> Mclock.now_ns () in
  let deadline_expired () =
    match budget with
    | None -> false
    | Some budget -> Mclock.elapsed_ns birth > budget
  in
  let timeout () =
    Stats.record_timeout stats;
    raise (Control.Timeout "transaction deadline expired")
  in
  (* One full attempt of [f], bracketed by the fault injector's in-attempt
     flag and fed into the stats.  Returns the commit result, or [None] on
     an abort; any other exception propagates to the caller. *)
  let call_attempt n =
    let t0 = if detailed then Mclock.now_ns () else 0L in
    let fi = !Runtime.fault_injection in
    let san = !Runtime.sanitizer in
    let g0 = if san then Sanitizer.attempt_fence () else 0 in
    if fi then Faults.enter_attempt ();
    match f ~attempt:n with
    | result ->
      if fi then Faults.leave_attempt ();
      if san then Sanitizer.audit_attempt ~before:g0 ~aborted:false;
      Stats.record_commit stats;
      (* The attempt committed and its values are installed: fire the
         record the engine staged (if any) into the write-ahead log.
         Post-outcome is the only safe point — an engine-side append
         could log an attempt that a later validation still aborts. *)
      if !Runtime.durability then Durable.on_commit ();
      if detailed then begin
        Stats.record_commit_latency stats (Mclock.elapsed_ns t0);
        Stats.record_retry_depth stats n
      end;
      Some result
    | exception Control.Abort_tx reason ->
      if fi then Faults.leave_attempt ();
      if san then Sanitizer.audit_attempt ~before:g0 ~aborted:true;
      if !Runtime.durability then Durable.discard_staged ();
      (* GV5 bumps the clock on aborts (no-op for GV1/GV4): a transaction
         that aborted on a lazily installed future version pulls the clock
         up so its next attempt's read stamp can cover that version. *)
      Clock.on_abort ();
      Stats.record_abort stats reason;
      if detailed then Stats.record_abort_latency stats (Mclock.elapsed_ns t0);
      None
    | exception e ->
      if fi then Faults.leave_attempt ();
      if san then Sanitizer.audit_attempt ~before:g0 ~aborted:false;
      if !Runtime.durability then Durable.discard_staged ();
      raise e
  in
  (* Serial-irrevocable fallback: take the global token, then retry until
     commit.  With the token held no other process can commit (the engines'
     serial gates abort them), so the clock stops advancing, straggler
     locks drain, and fault injection is suppressed — the next attempts
     face strictly less interference until one validates.  Only a deadline
     can stop the loop. *)
  let escalate n =
    Stats.record_fallback stats;
    if not (Runtime.Serial.enter ~giveup:deadline_expired ()) then timeout ();
    Fun.protect ~finally:Runtime.Serial.exit (fun () ->
      let rec go n =
        if deadline_expired () then timeout ();
        match call_attempt n with Some r -> r | None -> go (n + 1)
      in
      go n)
  in
  (* [backoff] is [None] until the first abort that waits: a transaction
     that commits first time never creates contention state. *)
  let rec attempt n backoff =
    if deadline_expired () then timeout ();
    (* Park while some other transaction runs serially: our commit would
       be refused anyway, so don't burn an attempt on it. *)
    if Runtime.Serial.active () && not (Runtime.Serial.mine ()) then
      if not (Runtime.Serial.await_clear ~giveup:deadline_expired ()) then
        timeout ();
    match call_attempt n with
    | Some r -> r
    | None when n >= !Runtime.retry_cap ->
      (* The cap is exhausted.  No backoff here: under [`Fallback] the
         escalating attempt must run immediately (it is about to serialise
         the world; delaying it only lengthens the stop), and under
         [`Raise] the caller wants the exception. *)
      Stats.record_starvation stats;
      (match !Runtime.starvation_mode with
      | `Raise -> raise (Control.Starvation starvation_msg)
      | `Fallback -> escalate (n + 1))
    | None ->
      (* A fresh transaction id seeds the state, so that rival domains
         draw different waits. *)
      let backoff =
        match backoff with
        | Some _ -> backoff
        | None -> Some (Backoff.create ~seed:(Runtime.fresh_tx_id ()) ())
      in
      Option.iter Backoff.once backoff;
      attempt (n + 1) backoff
  in
  attempt 0 None
