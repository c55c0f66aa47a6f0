(** Classic (non-relaxed) software transactional memories.

    TL2, LSA and SwissTM share one engine: invisible reads over versioned
    locks, a write set installed at commit, and a global version clock.
    They differ in three published design choices, captured by {!POLICY}:

    - {b when write locks are acquired} — at commit (TL2) or at the write
      itself (LSA, SwissTM), the latter detecting write/write conflicts
      eagerly;
    - {b whether the read validity interval can be extended} — TL2 aborts a
      read of a version newer than its start time, LSA and SwissTM revalidate
      the read set and slide the interval forward (lazy snapshot);
    - {b the contention manager} — on a write-lock conflict a timid
      transaction aborts itself, while SwissTM's two-phase manager lets
      transactions that already performed enough updates spin briefly for
      the lock before giving up (a simplification of its greedy manager
      that preserves the "writers eventually win" behaviour without remote
      aborts).

    Nesting is flat: a nested [atomic] runs inside the parent's context, so
    every location accessed by the child stays protected until the parent
    commits — classic transactions satisfy outheritance by construction
    (Section IV of the paper). *)

open Stm_core

module type POLICY = sig
  val name : string

  val eager_write_lock : bool
  (** Acquire the write lock at the first [write] instead of at commit. *)

  val extend_on_read : bool
  (** Extend the validity interval (revalidating the read set) instead of
      aborting when a too-new version is read. *)

  val priority_spin : int
  (** Bounded number of retries a priority transaction performs on a
      write-lock conflict before aborting.  0 = timid. *)

  val priority_threshold : int
  (** Number of writes after which a transaction gains priority;
      [max_int] = never. *)
end

module Make (P : POLICY) :
  Stm_intf.S with type 'a tvar = 'a Tvar.t = struct
  let name = P.name

  type 'a tvar = 'a Tvar.t

  type ctx = {
    tx_id : int;
    mutable cur_tx : int;  (* innermost transaction id, for recording *)
    mutable rv : int;      (* upper bound of the validity interval *)
    rset : Rwsets.Rset.t;
    wset : Rwsets.Wset.t;
    rec_state : Txrec.t option;
  }

  let stats = Stats.create ()

  include Attempt.Tvars

  let read : type a. ctx -> a tvar -> a =
   fun ctx tv ->
    Runtime.schedule_point_on (Runtime.Read (Tvar.id tv));
    match Rwsets.Wset.find ctx.wset tv with
    | Some v ->
      if Stats.detailed_enabled () then Stats.record_read_ws_hit stats;
      Txrec.read ctx.rec_state ~tx:ctx.cur_tx ~pe:(Tvar.id tv) v;
      v
    | None ->
      if Stats.detailed_enabled () then Stats.record_read_ws_miss stats;
      let s, v = Tvar.read_consistent tv in
      if Vlock.version_of s > ctx.rv then begin
        if not P.extend_on_read then Control.abort_tx Control.Read_too_new;
        let now = Clock.now () in
        let ok = Rwsets.Rset.validate ctx.rset ~owner:ctx.tx_id in
        if Stats.detailed_enabled () then
          Stats.record_validation_len stats (Rwsets.Rset.last_scan ctx.rset);
        if ok then ctx.rv <- now else Control.abort_tx Control.Read_too_new
      end;
      let pe = Tvar.id tv in
      Txrec.acquire ctx.rec_state ~pe;
      Rwsets.Rset.push ctx.rset
        { Rwsets.r_lock = tv.Tvar.lock; r_seen = s; r_pe = pe };
      (* Sanitizer strict-opacity mode: revalidate at every tracked read so
         an inconsistent snapshot aborts here, at the read that would
         observe it, instead of at commit. *)
      if !Runtime.sanitizer then
        Sanitizer.on_tx_read ~validate:(fun () ->
            let ok = Rwsets.Rset.validate ctx.rset ~owner:ctx.tx_id in
            if Stats.detailed_enabled () then
              Stats.record_validation_len stats
                (Rwsets.Rset.last_scan ctx.rset);
            ok);
      Txrec.read ctx.rec_state ~tx:ctx.cur_tx ~pe v;
      v

  (* Eager lock acquisition with the two-phase contention manager: priority
     transactions retry the lock a bounded number of times. *)
  let acquire_write_lock ctx tv =
    let spins =
      if Rwsets.Wset.size ctx.wset >= P.priority_threshold then P.priority_spin
      else 0
    in
    let rec go n =
      if
        (Rwsets.Wset.lock_one ctx.wset tv
           ~owner:ctx.tx_id
         [@txlint.allow "lock-release"
             "encounter-time locks join the wset; commit releases them \
              on every path (install, abort-restore, crash-forget)"])
      then ()
      else if n > 0 then begin
        Domain.cpu_relax ();
        go (n - 1)
      end
      else Control.abort_tx Control.Lock_contention
    in
    go spins

  let write : type a. ctx -> a tvar -> a -> unit =
   fun ctx tv v ->
    Runtime.schedule_point_on (Runtime.Write (Tvar.id tv));
    let pe = Tvar.id tv in
    let first = Rwsets.Wset.add ctx.wset tv v in
    if first then begin
      Txrec.acquire ctx.rec_state ~pe;
      if P.eager_write_lock then acquire_write_lock ctx tv
    end;
    Txrec.write ctx.rec_state ~tx:ctx.cur_tx ~pe v

  module A = Attempt.Make (struct
    type nonrec ctx = ctx
    type scratch = { s_rset : Rwsets.Rset.t; s_wset : Rwsets.Wset.t }

    let stats = stats

    let create_scratch () =
      { s_rset = Rwsets.Rset.create (); s_wset = Rwsets.Wset.create () }

    let clear_scratch s =
      Rwsets.Rset.clear s.s_rset;
      Rwsets.Wset.clear s.s_wset

    let start s _ ~owner ~rec_state =
      { tx_id = owner; cur_tx = owner; rv = Clock.now (); rset = s.s_rset;
        wset = s.s_wset; rec_state }

    let rec_state ctx = ctx.rec_state

    include Attempt.Versioned (struct
      type nonrec ctx = ctx

      let stats = stats
      let owner ctx = ctx.tx_id
      let wset ctx = ctx.wset
      let rec_state = rec_state

      let validate ctx =
        let ok = Rwsets.Rset.validate ctx.rset ~owner:ctx.tx_id in
        if Stats.detailed_enabled () then
          Stats.record_validation_len stats (Rwsets.Rset.last_scan ctx.rset);
        ok

      (* Every read was validated against [rv] when made. *)
      let validate_read_only _ = true
      let iter_reads ctx f = Rwsets.Rset.iter f ctx.rset
      let reads ctx = Rwsets.Rset.length ctx.rset
    end)

    let tx_id ctx = ctx.cur_tx

    (* Flat nesting: the child's protected set simply stays in the
       parent's read/write sets — outheritance by construction. *)
    let enter ctx _ ~tx =
      ctx.cur_tx <- tx;
      ctx

    let validate_child _ = ()
    let merge ~parent ~parent_tx _ = parent.cur_tx <- parent_tx
  end)

  let in_transaction = A.in_transaction
  let atomic ?mode:_ f = A.atomic Stm_intf.Regular f
end

(** TL2 (Dice, Shalev, Shavit — DISC'06): commit-time locking, no interval
    extension, timid contention management. *)
module Tl2 = Make (struct
  let name = "TL2"
  let eager_write_lock = false
  let extend_on_read = false
  let priority_spin = 0
  let priority_threshold = max_int
end)

(** LSA (Riegel, Felber, Fetzer — DISC'06): lazy snapshot with interval
    extension and eager lock acquirement. *)
module Lsa = Make (struct
  let name = "LSA"
  let eager_write_lock = true
  let extend_on_read = true
  let priority_spin = 0
  let priority_threshold = max_int
end)

(** SwissTM (Dragojević, Felber, Gramoli, Guerraoui — CACM'11): eager
    write/write conflict detection, lazy read validation with extension,
    two-phase contention manager. *)
module Swisstm = Make (struct
  let name = "SwissTM"
  let eager_write_lock = true
  let extend_on_read = true
  let priority_spin = 64
  let priority_threshold = 10
end)
