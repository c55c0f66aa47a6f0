(** View transactions (Afek, Morrison, Tzafrir — PODC'10), as discussed in
    Section VIII of the paper:

    "View transactions are a type of relaxed transactions that use
    programmer-specified view pointers to define the critical view of a
    transaction, which is basically equivalent to our notion of a minimal
    protected set.  When committing, a view transaction must pass its
    critical view to its parent transaction (if any), thus satisfying
    outheritance and ensuring composition."

    This module makes that paragraph executable.  It is a third relaxation
    style next to elastic (sliding window) and boosting (abstract locks):

    - {!read_weak} returns a momentarily-consistent value that is {e never
      revalidated} — the programmer asserts the transaction's postcondition
      does not depend on it (heuristic reads, search hints, statistics);
    - {!read} (the critical read) joins the transaction's {e view}: the
      set validated at commit, i.e. its minimal protected set;
    - writes are tracked as usual and installed atomically at commit;
    - a nested transaction's view is passed to its parent at child commit
      — outheritance — so compositions of view transactions are atomic
      with respect to their critical views.

    The demonstration that this matters is in the tests: the Fig. 1
    insertIfAbsent scenario is safe in every interleaving when the guard
    is read critically, and the explorer exhibits a violation when it is
    read weakly — the programmer-facing knob that elastic transactions
    turn automatically. *)

open Stm_core

module type S = sig
  include Stm_intf.S

  val read_weak : ctx -> 'a tvar -> 'a
  (** A consistent read that never joins the critical view: later changes
      to the location do not abort this transaction.  The caller asserts
      the transaction's correctness does not depend on the value staying
      current. *)
end

module Make (C : sig
  val name : string
end) : S with type 'a tvar = 'a Tvar.t = struct
  let name = C.name

  type 'a tvar = 'a Tvar.t

  type root = {
    root_tx : int;
    wset : Rwsets.Wset.t;
    mutable rv : int;
    rec_state : Txrec.t option;
  }

  type ctx = {
    tx_id : int;
    root : root;
    parent : ctx option;
    view : Rwsets.Rset.t;  (* the critical view = minimal protected set *)
  }

  let stats = Stats.create ()

  include Attempt.Tvars

  let rec validate_views ~owner ctx =
    Rwsets.Rset.validate ctx.view ~owner
    && (match ctx.parent with None -> true | Some p -> validate_views ~owner p)

  (* Suffix-only variant for the sanitizer's per-read check: sound while
     [rv] is unchanged since the last successful validation (DESIGN.md 5g);
     extension and commit use the full [validate_views]. *)
  let rec validate_views_new ~owner ctx =
    Rwsets.Rset.validate_new ctx.view ~owner
    && (match ctx.parent with
       | None -> true
       | Some p -> validate_views_new ~owner p)

  (* Entries examined by the innermost view's latest validation — a lower
     bound of the whole-chain scan, exact for unnested transactions. *)
  let record_scan ctx =
    if Stats.detailed_enabled () then
      Stats.record_validation_len stats (Rwsets.Rset.last_scan ctx.view)

  (* Critical read: consistent now, validated again at commit. *)
  let read : type a. ctx -> a tvar -> a =
   fun ctx tv ->
    Runtime.schedule_point_on (Runtime.Read (Tvar.id tv));
    match Rwsets.Wset.find ctx.root.wset tv with
    | Some v ->
      if Stats.detailed_enabled () then Stats.record_read_ws_hit stats;
      Txrec.read ctx.root.rec_state ~tx:ctx.tx_id ~pe:(Tvar.id tv) v;
      v
    | None ->
      if Stats.detailed_enabled () then Stats.record_read_ws_miss stats;
      let s, v = Tvar.read_consistent tv in
      let pe = Tvar.id tv in
      (* Keep critical reads within a consistent snapshot, extending the
         validity interval LSA-style when a newer version appears.  Moving
         [rv] requires the full re-scan. *)
      if Vlock.version_of s > ctx.root.rv then begin
        let owner = ctx.root.root_tx in
        let now = Clock.now () in
        let ok = validate_views ~owner ctx in
        record_scan ctx;
        if ok then ctx.root.rv <- now
        else Control.abort_tx Control.Read_too_new
      end;
      Txrec.acquire ctx.root.rec_state ~pe;
      Rwsets.Rset.push ctx.view
        { Rwsets.r_lock = tv.Tvar.lock; r_seen = s; r_pe = pe };
      (* Sanitizer strict-opacity mode: revalidate the critical views at
         every critical read.  Weak reads stay unchecked by design — they
         are the view-transaction relaxation.  [rv] is unchanged since the
         last success, so the suffix scan suffices. *)
      if !Runtime.sanitizer then
        Sanitizer.on_tx_read ~validate:(fun () ->
            let ok = validate_views_new ~owner:ctx.root.root_tx ctx in
            record_scan ctx;
            ok);
      Txrec.read ctx.root.rec_state ~tx:ctx.tx_id ~pe v;
      v

  (* Weak read: consistent at the moment it happens, never revalidated.
     Its protection element is acquired and released around the operation,
     which is exactly how the paper's model renders a read that protects
     nothing (an empty contribution to Pmin). *)
  let read_weak : type a. ctx -> a tvar -> a =
   fun ctx tv ->
    Runtime.schedule_point_on (Runtime.Read (Tvar.id tv));
    match Rwsets.Wset.find ctx.root.wset tv with
    | Some v ->
      (* Served from the write set, whose first write already holds the
         element: record the read as [read] does, with no acquire. *)
      Txrec.read ctx.root.rec_state ~tx:ctx.tx_id ~pe:(Tvar.id tv) v;
      v
    | None ->
      let _, v = Tvar.read_consistent tv in
      let pe = Tvar.id tv in
      Txrec.acquire ctx.root.rec_state ~pe;
      Txrec.read ctx.root.rec_state ~tx:ctx.tx_id ~pe v;
      Txrec.release ctx.root.rec_state ~pe;
      v

  let write : type a. ctx -> a tvar -> a -> unit =
   fun ctx tv v ->
    Runtime.schedule_point_on (Runtime.Write (Tvar.id tv));
    let pe = Tvar.id tv in
    let first = Rwsets.Wset.add ctx.root.wset tv v in
    if first then Txrec.acquire ctx.root.rec_state ~pe;
    Txrec.write ctx.root.rec_state ~tx:ctx.tx_id ~pe v

  let rec iter_views ctx f =
    Rwsets.Rset.iter f ctx.view;
    match ctx.parent with None -> () | Some p -> iter_views p f

  module A = Attempt.Make (struct
    type nonrec ctx = ctx

    (* Nested views stay per-level allocations, merged away at child
       commit. *)
    type scratch = { s_wset : Rwsets.Wset.t; s_view : Rwsets.Rset.t }

    let stats = stats

    let create_scratch () =
      { s_wset = Rwsets.Wset.create (); s_view = Rwsets.Rset.create () }

    let clear_scratch s =
      Rwsets.Wset.clear s.s_wset;
      Rwsets.Rset.clear s.s_view

    let start s _ ~owner ~rec_state =
      let root =
        { root_tx = owner; wset = s.s_wset; rv = Clock.now (); rec_state }
      in
      { tx_id = owner; root; parent = None; view = s.s_view }

    let rec_state ctx = ctx.root.rec_state

    include Attempt.Versioned (struct
      type nonrec ctx = ctx

      let stats = stats
      let owner ctx = ctx.root.root_tx
      let wset ctx = ctx.root.wset
      let rec_state = rec_state

      let validate ctx =
        let ok = validate_views ~owner:ctx.root.root_tx ctx in
        record_scan ctx;
        ok

      let validate_read_only ctx = validate_views ~owner:ctx.root.root_tx ctx
      let iter_reads = iter_views

      (* Committed children's views have joined the root's. *)
      let reads ctx = Rwsets.Rset.length ctx.view
    end)

    let tx_id ctx = ctx.tx_id

    let enter parent _ ~tx =
      { tx_id = tx; root = parent.root; parent = Some parent;
        view = Rwsets.Rset.create () }

    let validate_child _ = ()

    (* Outheritance: the child's critical view joins the parent's. *)
    let merge ~parent ~parent_tx:_ child =
      Rwsets.Rset.append_into ~src:child.view ~dst:parent.view
  end)

  let in_transaction = A.in_transaction
  let atomic ?mode:_ f = A.atomic Stm_intf.Regular f
end

(** The default view-transaction instance. *)
module V = Make (struct
  let name = "View-STM"
end)
