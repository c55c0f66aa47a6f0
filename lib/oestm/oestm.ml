(** OE-STM — the paper's contribution (Section V).

    The engine implements the elastic transaction model of Felber, Gramoli
    and Guerraoui (DISC'09): an [Elastic] transaction keeps only a short
    sliding window of its most recent reads while it has not written, so
    conflicts on the read-only prefix of a traversal are ignored; from the
    first write on, every access is tracked and validated at commit
    together with the window contents at the moment of the write.
    [Regular] transactions track everything with TL2/LSA-style snapshot
    validation.

    The window spans the last {e two} reads, which is what
    linked-structure updates need: an unlink reads the predecessor cell,
    then the successor cell, then writes the predecessor — both reads must
    still be valid at commit or a concurrent insertion between them is
    silently overwritten (a lost update this repository's move/rebalance
    example catches immediately with a size-1 window).

    Nested transactions are where implementations differ, and this module is
    parameterised by the {!nesting} policy:

    - {!Outherit} — the child passes its read set, its last-read entry and
      its write set to the parent at commit (Fig. 4 of the paper), so the
      parent keeps detecting conflicts on everything the child protected
      until the parent itself commits.  This satisfies outheritance and
      therefore weak composability (Theorems 4.3 and 4.4).
    - {!Drop} — the child's conflict information is discarded when it
      commits, which is what composing elastic transactions naively does
      (Fig. 1); the resulting STM admits non-atomic compositions, and the
      test suite demonstrates it by exhaustive interleaving exploration.

    One deliberate difference with the original E-STM: a child's writes are
    kept pending in the (shared) top-level write set until the top-level
    commit rather than being installed at child commit.  This is required
    for the parent's isolation either way, and it only makes the [Drop]
    instance {e more} protective than real E-STM — the composition
    violations it exhibits come purely from the dropped read information,
    exactly the phenomenon the paper describes. *)

open Stm_core

type nesting = Outherit | Drop

module type CONFIG = sig
  val name : string
  val nesting : nesting

  val window_size : int
  (** Number of most-recent reads an elastic transaction keeps mutually
      validated before its first write.  2 (the default instances) is what
      linked-structure updates require; 1 is the ablation that loses
      updates on chain unlinks (kept for the regression test). *)
end

module type S_EXT = sig
  include Stm_intf.S

  val release : ctx -> 'a tvar -> unit
end

module Make (C : CONFIG) : S_EXT with type 'a tvar = 'a Tvar.t = struct
  let name = C.name

  type 'a tvar = 'a Tvar.t

  (* State shared by every nesting level of one top-level attempt. *)
  type root = {
    root_tx : int;           (* lock owner id for this attempt *)
    wset : Rwsets.Wset.t;    (* shared: children's writes stay pending *)
    mutable rv : int;        (* snapshot validity watermark *)
    rec_state : Txrec.t option;
  }

  type ctx = {
    tx_id : int;
    mode : Stm_intf.mode;
    root : root;
    parent : ctx option;
    rset_snap : Rwsets.Rset.t;
        (* reads validated against [rv] when made (regular mode and
           post-write elastic reads); consistent as a snapshot *)
    rset_prot : Rwsets.Rset.t;
        (* protected elastic entries: window entries promoted at the first
           write or outherited from children; validated at commit *)
    mutable w0 : Rwsets.rentry option;  (* most recent elastic read *)
    mutable w1 : Rwsets.rentry option;  (* second most recent, unused when
                                           [C.window_size] is 1 *)
    mutable written : bool;
  }

  let keep_two = C.window_size >= 2

  let stats = Stats.create ()

  include Attempt.Tvars

  let entry_valid ~owner = function
    | None -> true
    | Some e -> Rwsets.rentry_valid ~owner e

  let window_valid ~owner ctx =
    entry_valid ~owner ctx.w0 && entry_valid ~owner ctx.w1

  (* Every tracked observation of this level and its ancestors is still
     valid.  Committed children have already merged their sets into their
     parent, so walking the parent chain covers the whole transaction. *)
  let rec validate_levels ~owner ctx =
    Rwsets.Rset.validate ctx.rset_snap ~owner
    && Rwsets.Rset.validate ctx.rset_prot ~owner
    && window_valid ~owner ctx
    && (match ctx.parent with None -> true | Some p -> validate_levels ~owner p)

  let rec validate_protected ~owner ctx =
    Rwsets.Rset.validate ctx.rset_prot ~owner
    && window_valid ~owner ctx
    && (match ctx.parent with
       | None -> true
       | Some p -> validate_protected ~owner p)

  (* Suffix-only variant for the sanitizer's per-read strict-opacity check:
     [rv] is unchanged between successful validations at reads, so only the
     entries appended since need checking (see DESIGN.md 5g).  Extension
     and commit use the full [validate_levels]. *)
  let rec validate_levels_new ~owner ctx =
    Rwsets.Rset.validate_new ctx.rset_snap ~owner
    && Rwsets.Rset.validate_new ctx.rset_prot ~owner
    && window_valid ~owner ctx
    && (match ctx.parent with
       | None -> true
       | Some p -> validate_levels_new ~owner p)

  let rec protected_is_empty ctx =
    Rwsets.Rset.is_empty ctx.rset_prot
    && (match ctx.parent with None -> true | Some p -> protected_is_empty p)

  (* Entries examined by the innermost level's latest validation — a lower
     bound of the whole-chain scan, exact for unnested transactions. *)
  let record_scan ctx =
    if Stats.detailed_enabled () then
      Stats.record_validation_len stats
        (Rwsets.Rset.last_scan ctx.rset_snap
        + Rwsets.Rset.last_scan ctx.rset_prot)

  let extend_or_abort ctx =
    let owner = ctx.root.root_tx in
    let now = Clock.now () in
    let ok = validate_levels ~owner ctx in
    record_scan ctx;
    if ok then ctx.root.rv <- now else Control.abort_tx Control.Read_too_new

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
      let entry = { Rwsets.r_lock = tv.Tvar.lock; r_seen = s; r_pe = pe } in
      let owner = ctx.root.root_tx in
      if ctx.mode = Elastic && not ctx.written then begin
        (* Elastic prefix: the new read must be mutually atomic with the
           reads still in the window; anything older is forgotten (the
           relaxation). *)
        if not (window_valid ~owner ctx) then
          Control.abort_tx Control.Window_invalid;
        Txrec.acquire ctx.root.rec_state ~pe;
        if keep_two then begin
          (match ctx.w1 with
          | Some dropped ->
            Txrec.release ctx.root.rec_state ~pe:dropped.Rwsets.r_pe
          | None -> ());
          ctx.w1 <- ctx.w0
        end
        else
          (match ctx.w0 with
          | Some dropped ->
            Txrec.release ctx.root.rec_state ~pe:dropped.Rwsets.r_pe
          | None -> ());
        ctx.w0 <- Some entry
      end
      else begin
        if Vlock.version_of s > ctx.root.rv then extend_or_abort ctx;
        Txrec.acquire ctx.root.rec_state ~pe;
        Rwsets.Rset.push ctx.rset_snap entry
      end;
      (* Sanitizer strict-opacity mode: revalidate everything this
         transaction still tracks (window included) at every read, so
         inconsistent snapshots abort here rather than at commit.  [rv] is
         unchanged since the last success, so the suffix scan suffices. *)
      if !Runtime.sanitizer then
        Sanitizer.on_tx_read ~validate:(fun () ->
            let ok = validate_levels_new ~owner ctx in
            record_scan ctx;
            ok);
      Txrec.read ctx.root.rec_state ~tx:ctx.tx_id ~pe v;
      v

  let write : type a. ctx -> a tvar -> a -> unit =
   fun ctx tv v ->
    Runtime.schedule_point_on (Runtime.Write (Tvar.id tv));
    let pe = Tvar.id tv in
    if not ctx.written then begin
      ctx.written <- true;
      (* Promote the window: from the first write on its reads belong to
         the minimal protected set (Section V: Pmin = {r_k, ..., r_n}). *)
      Option.iter (Rwsets.Rset.push ctx.rset_prot) ctx.w1;
      Option.iter (Rwsets.Rset.push ctx.rset_prot) ctx.w0;
      ctx.w0 <- None;
      ctx.w1 <- None
    end;
    let first = Rwsets.Wset.add ctx.root.wset tv v in
    if first then Txrec.acquire ctx.root.rec_state ~pe;
    Txrec.write ctx.root.rec_state ~tx:ctx.tx_id ~pe v

  (* DSTM-style early release (Section II.A of the paper: "the protection
     element is released when the release operation of the transactional
     memory is called").  Drops every tracked read of [tv] from the running
     transaction — all nesting levels — so later conflicts on it are
     ignored.  The caller asserts that its postcondition no longer depends
     on the location; misuse trades atomicity for concurrency exactly as
     in DSTM. *)
  let release : type a. ctx -> a tvar -> unit =
   fun ctx tv ->
    let pe = Tvar.id tv in
    let rec walk level =
      let dropped =
        Rwsets.Rset.filter_pe level.rset_snap ~pe
        + Rwsets.Rset.filter_pe level.rset_prot ~pe
      in
      let dropped = ref dropped in
      (match level.w0 with
      | Some e when e.Rwsets.r_pe = pe ->
        level.w0 <- None;
        incr dropped
      | _ -> ());
      (match level.w1 with
      | Some e when e.Rwsets.r_pe = pe ->
        level.w1 <- None;
        incr dropped
      | _ -> ());
      for _ = 1 to !dropped do
        Txrec.release ctx.root.rec_state ~pe
      done;
      match level.parent with None -> () | Some p -> walk p
    in
    walk ctx

  let rec iter_levels ctx f =
    Rwsets.Rset.iter f ctx.rset_snap;
    Rwsets.Rset.iter f ctx.rset_prot;
    Option.iter f ctx.w0;
    Option.iter f ctx.w1;
    match ctx.parent with None -> () | Some p -> iter_levels p f

  module A = Attempt.Make (struct
    type nonrec ctx = ctx

    (* Nested levels allocate fresh per-level sets: they are short-lived
       and merged away at child commit. *)
    type scratch = {
      s_wset : Rwsets.Wset.t;
      s_snap : Rwsets.Rset.t;
      s_prot : Rwsets.Rset.t;
    }

    let stats = stats

    let create_scratch () =
      { s_wset = Rwsets.Wset.create (); s_snap = Rwsets.Rset.create ();
        s_prot = Rwsets.Rset.create () }

    let clear_scratch s =
      Rwsets.Wset.clear s.s_wset;
      Rwsets.Rset.clear s.s_snap;
      Rwsets.Rset.clear s.s_prot

    let start s mode ~owner ~rec_state =
      let root =
        { root_tx = owner; wset = s.s_wset; rv = Clock.now (); rec_state }
      in
      { tx_id = owner; mode; root; parent = None; rset_snap = s.s_snap;
        rset_prot = s.s_prot; w0 = None; w1 = None; written = false }

    let rec_state ctx = ctx.root.rec_state

    include Attempt.Versioned (struct
      type nonrec ctx = ctx

      let stats = stats
      let owner ctx = ctx.root.root_tx
      let wset ctx = ctx.root.wset
      let rec_state = rec_state

      let validate ctx =
        let ok = validate_levels ~owner:ctx.root.root_tx ctx in
        record_scan ctx;
        ok

      (* A lone elastic transaction needs no commit validation (it
         serialised at its last read); only outherited protected sets must
         still hold, so that composed children appear adjacent. *)
      let validate_read_only ctx =
        protected_is_empty ctx
        || validate_protected ~owner:ctx.root.root_tx ctx

      let iter_reads = iter_levels

      (* Committed children have merged their sets into the root, so the
         root's sets are the whole transaction's footprint.  The elastic
         window holds at most two more tracked reads. *)
      let reads ctx =
        Rwsets.Rset.length ctx.rset_snap
        + Rwsets.Rset.length ctx.rset_prot
        + (match ctx.w0 with Some _ -> 1 | None -> 0)
        + match ctx.w1 with Some _ -> 1 | None -> 0
    end)

    let tx_id ctx = ctx.tx_id

    let enter parent mode ~tx =
      { tx_id = tx; mode; root = parent.root; parent = Some parent;
        rset_snap = Rwsets.Rset.create (); rset_prot = Rwsets.Rset.create ();
        w0 = None; w1 = None; written = false }

    (* Child commit, part 1 (before the commit event): with [Drop], the child
       validates itself at its own commit, as E-STM does. *)
    let validate_child child =
      match C.nesting with
      | Outherit -> ()
      | Drop ->
        let owner = child.root.root_tx in
        if
          not
            (Rwsets.Rset.validate child.rset_snap ~owner
            && Rwsets.Rset.validate child.rset_prot ~owner
            && window_valid ~owner child)
        then Control.abort_tx Control.Validation_failed

    (* Child commit, part 2 (after the commit event): outherit the protected
       set to the parent, or drop it (releasing the protection elements — the
       composition-breaking behaviour of Fig. 1). *)
    let merge ~parent ~parent_tx:_ child =
      match C.nesting with
      | Outherit ->
        Rwsets.Rset.append_into ~src:child.rset_snap ~dst:parent.rset_snap;
        Rwsets.Rset.append_into ~src:child.rset_prot ~dst:parent.rset_prot;
        Option.iter (Rwsets.Rset.push parent.rset_prot) child.w1;
        Option.iter (Rwsets.Rset.push parent.rset_prot) child.w0;
        if child.written && not parent.written then begin
          parent.written <- true;
          Option.iter (Rwsets.Rset.push parent.rset_prot) parent.w1;
          Option.iter (Rwsets.Rset.push parent.rset_prot) parent.w0;
          parent.w0 <- None;
          parent.w1 <- None
        end
      | Drop ->
        let release (e : Rwsets.rentry) =
          Txrec.release child.root.rec_state ~pe:e.Rwsets.r_pe
        in
        Rwsets.Rset.iter release child.rset_snap;
        Rwsets.Rset.iter release child.rset_prot;
        Option.iter release child.w1;
        Option.iter release child.w0
  end)

  let in_transaction = A.in_transaction
  let atomic ?(mode = Stm_intf.Regular) f = A.atomic mode f
end

(** The paper's OE-STM: elastic transactions that compose. *)
module Oe = Make (struct
  let name = "OE-STM"
  let nesting = Outherit
  let window_size = 2
end)

(** Elastic transactions composed without outheritance — the broken
    composition of Fig. 1, kept as an executable counterexample. *)
module E_broken = Make (struct
  let name = "E-STM(drop)"
  let nesting = Drop
  let window_size = 2
end)

(** Ablation: a one-read window.  Unsafe for chain updates (an unlink's
    predecessor read escapes validation — see the module comment); the
    test suite demonstrates the lost update by exhaustive exploration. *)
module Oe_window1 = Make (struct
  let name = "OE-STM(w1)"
  let nesting = Outherit
  let window_size = 1
end)
