(** The tvar engine: OE-STM — the paper's contribution (Section V) — and,
    as instances of the same engine, View-STM and the classic baselines
    TL2, LSA and SwissTM.

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
    example catches immediately with a size-1 window).  An instance with
    no window ([window_size = 0]) runs every transaction [Regular].

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
    - {!Flat} — the child runs in its parent's context; only the recorded
      transaction id switches.  Every location it accesses stays protected
      until the parent commits, so classic transactions satisfy
      outheritance by construction (Section IV).

    One deliberate difference with the original E-STM: a child's writes are
    kept pending in the (shared) top-level write set until the top-level
    commit rather than being installed at child commit.  This is required
    for the parent's isolation either way, and it only makes the [Drop]
    instance {e more} protective than real E-STM — the composition
    violations it exhibits come purely from the dropped read information,
    exactly the phenomenon the paper describes.

    The remaining four {!CONFIG} fields are the classic baselines' design
    choices (see {!Classic_stm}): when write locks are taken, whether a
    too-new read extends the snapshot or aborts, and the contention
    manager's spin on a contended write lock. *)

open Stm_core

type nesting = Outherit | Drop | Flat

(* The fields are documented in oestm.mli. *)
module type CONFIG = sig
  val name : string
  val nesting : nesting
  val window_size : int
  val eager_write_lock : bool
  val extend_on_read : bool
  val priority_spin : int
  val priority_threshold : int
end

module type S_EXT = sig
  include Stm_intf.S

  val release : ctx -> 'a tvar -> unit
end

module type S = sig
  include Stm_intf.S

  val read_weak : ctx -> 'a tvar -> 'a
end

(* [Make] yields both relaxations; the interface gives each instance the
   signature of the one it stands for. *)
module Make (C : CONFIG) : sig
  include S_EXT with type 'a tvar = 'a Tvar.t

  val read_weak : ctx -> 'a tvar -> 'a
end = struct
  let name = C.name

  type 'a tvar = 'a Tvar.t

  (* State shared by every nesting level of one top-level attempt.  It
     lives in the per-domain scratch and [start] resets it. *)
  type root = {
    mutable root_tx : int;   (* lock owner id for this attempt *)
    wset : Rwsets.Wset.t;    (* shared: children's writes stay pending *)
    mutable rv : int;        (* snapshot validity watermark *)
    mutable rec_state : Txrec.t option;
  }

  type ctx = {
    mutable tx_id : int;  (* recorded id; a [Flat] child switches it *)
    mutable mode : Stm_intf.mode;  (* mutable only for scratch reuse *)
    root : root;
    parent : ctx option;
    rset_snap : Rwsets.Rset.t;
        (* reads validated against [rv] when made (regular mode and
           post-write elastic reads); consistent as a snapshot *)
    rset_prot : Rwsets.Rset.t;
        (* protected elastic entries: window entries promoted at the first
           write or outherited from children; validated at commit *)
    mutable w0 : Rwsets.rentry option;  (* most recent elastic read *)
    mutable w1 : Rwsets.rentry option;  (* second most recent, if kept *)
    mutable written : bool;
  }

  (* Without a window no transaction is elastic, so no level ever holds a
     window or protected entries: validation scans the snapshot sets
     alone. *)
  let elastic = C.window_size > 0
  let keep_two = C.window_size >= 2

  let stats = Stats.create ()
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

  let entry_valid ~owner = function
    | None -> true
    | Some e -> Rwsets.rentry_valid ~owner e

  let window_valid ~owner ctx =
    entry_valid ~owner ctx.w0 && entry_valid ~owner ctx.w1

  let validate_level ~owner ctx =
    Rwsets.Rset.validate ctx.rset_snap ~owner
    && ((not elastic)
       || (Rwsets.Rset.validate ctx.rset_prot ~owner && window_valid ~owner ctx))

  (* Every tracked observation of this level and its ancestors is still
     valid.  Committed children have already merged their sets into their
     parent, so walking the parent chain covers the whole transaction. *)
  let rec validate_levels ~owner ctx =
    validate_level ~owner ctx
    && (match ctx.parent with None -> true | Some p -> validate_levels ~owner p)

  let rec validate_protected ~owner ctx =
    Rwsets.Rset.validate ctx.rset_prot ~owner
    && window_valid ~owner ctx
    && (match ctx.parent with
       | None -> true
       | Some p -> validate_protected ~owner p)

  let rec protected_is_empty ctx =
    Rwsets.Rset.is_empty ctx.rset_prot
    && (match ctx.parent with None -> true | Some p -> protected_is_empty p)

  (* The scan-length histogram gets the entries the innermost level's
     validation examined — a lower bound of the whole-chain scan, exact for
     unnested transactions. *)
  let validate ctx =
    let ok = validate_levels ~owner:ctx.root.root_tx ctx in
    if Runtime.plane.detailed then
      Stats.record_validation_len stats
        (Rwsets.Rset.last_scan ctx.rset_snap
        + Rwsets.Rset.last_scan ctx.rset_prot);
    ok

  (* A too-new read of version [seen]: slide the snapshot forward if the
     whole transaction still validates, or abort (always, without
     [C.extend_on_read]).  Under GV5 a commit installs [clock + 2] without
     moving the clock, so [now] alone could stay below [seen] and every
     later read of such a version would validate again; catching the clock
     up to [seen] first makes one extension cover them all. *)
  let extend_or_abort ctx ~seen =
    if not C.extend_on_read then Control.abort_tx Control.Read_too_new;
    if !Runtime.clock_policy == Runtime.GV5 then Clock.catch_up seen;
    let now = Clock.now () in
    if validate ctx then ctx.root.rv <- now
    else Control.abort_tx Control.Read_too_new

  (* Move [ctx]'s window into [into]'s protected set, oldest entry first. *)
  let promote_window ~into ctx =
    (match ctx.w1 with
    | Some e ->
      Rwsets.Rset.push into.rset_prot e;
      ctx.w1 <- None
    | None -> ());
    match ctx.w0 with
    | Some e ->
      Rwsets.Rset.push into.rset_prot e;
      ctx.w0 <- None
    | None -> ()

  let read : type a. ctx -> a tvar -> a =
   fun ctx tv ->
    Runtime.schedule_point_on (Runtime.Read (Tvar.id tv));
    let root = ctx.root in
    match Rwsets.Wset.find root.wset tv with
    | Some v ->
      if Runtime.plane.detailed then Stats.record_read_ws_hit stats;
      Txrec.read root.rec_state ~tx:ctx.tx_id ~pe:(Tvar.id tv) v;
      v
    | None ->
      if Runtime.plane.detailed then Stats.record_read_ws_miss stats;
      let s, v = Tvar.read_consistent tv in
      let pe = Tvar.id tv in
      let entry = { Rwsets.r_lock = tv.Tvar.lock; r_seen = s; r_pe = pe } in
      if ctx.mode = Elastic && not ctx.written then begin
        (* Elastic prefix: the new read must be mutually atomic with the
           reads still in the window; anything older is forgotten (the
           relaxation). *)
        if not (window_valid ~owner:root.root_tx ctx) then
          Control.abort_tx Control.Window_invalid;
        Txrec.acquire root.rec_state ~pe;
        let dropped = if keep_two then ctx.w1 else ctx.w0 in
        (match dropped with
        | Some e -> Txrec.release root.rec_state ~pe:e.Rwsets.r_pe
        | None -> ());
        if keep_two then ctx.w1 <- ctx.w0;
        ctx.w0 <- Some entry
      end
      else begin
        (* Tracked before any extension, so the extension's rescan covers
           this read too: its value was read before [rv] moves, and only a
           stamp still unchanged at the rescan shows it current at the new
           [rv]. *)
        Rwsets.Rset.push ctx.rset_snap entry;
        let seen = Vlock.version_of s in
        if seen > root.rv then extend_or_abort ctx ~seen;
        Txrec.acquire root.rec_state ~pe
      end;
      (* Sanitizer strict-opacity mode: revalidate everything this
         transaction still tracks (window included) at every read, so
         inconsistent snapshots abort here rather than at commit. *)
      if Option.is_some Runtime.plane.sanitizer then
        Sanitizer.on_tx_read ~validate:(fun () -> validate ctx);
      Txrec.read root.rec_state ~tx:ctx.tx_id ~pe v;
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

  (* Eager lock acquisition with the two-phase contention manager: priority
     transactions retry the lock a bounded number of times. *)
  let acquire_write_lock root tv =
    let rec go n =
      if
        not
          (Rwsets.Wset.lock_one root.wset tv
             ~owner:root.root_tx
           [@txlint.allow "lock-release"
               "encounter-time locks join the wset; commit releases them \
                on every path (install, abort-restore, crash-forget)"])
      then
        if n > 0 then begin
          Domain.cpu_relax ();
          go (n - 1)
        end
        else Control.abort_tx Control.Lock_contention
    in
    go
      (if Rwsets.Wset.size root.wset >= C.priority_threshold then
         C.priority_spin
       else 0)

  let write : type a. ctx -> a tvar -> a -> unit =
   fun ctx tv v ->
    Runtime.schedule_point_on (Runtime.Write (Tvar.id tv));
    let pe = Tvar.id tv in
    if not ctx.written then begin
      ctx.written <- true;
      (* Promote the window: from the first write on its reads belong to
         the minimal protected set (Section V: Pmin = {r_k, ..., r_n}). *)
      promote_window ~into:ctx ctx
    end;
    let root = ctx.root in
    if Rwsets.Wset.add root.wset tv v then begin
      Txrec.acquire root.rec_state ~pe;
      if C.eager_write_lock then acquire_write_lock root tv
    end;
    Txrec.write root.rec_state ~tx:ctx.tx_id ~pe v

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
    let is_pe = function Some e -> e.Rwsets.r_pe = pe | None -> false in
    let rec walk level =
      let in_w0 = is_pe level.w0 and in_w1 = is_pe level.w1 in
      if in_w0 then level.w0 <- None;
      if in_w1 then level.w1 <- None;
      let dropped =
        Rwsets.Rset.filter_pe level.rset_snap ~pe
        + Rwsets.Rset.filter_pe level.rset_prot ~pe
        + Bool.to_int in_w0 + Bool.to_int in_w1
      in
      for _ = 1 to dropped do
        Txrec.release ctx.root.rec_state ~pe
      done;
      Option.iter walk level.parent
    in
    walk ctx

  let iter_level f ctx =
    Rwsets.Rset.iter f ctx.rset_snap;
    Rwsets.Rset.iter f ctx.rset_prot;
    Option.iter f ctx.w1;
    Option.iter f ctx.w0

  let rec iter_levels ctx f =
    iter_level f ctx;
    Option.iter (fun p -> iter_levels p f) ctx.parent

  (* Committed children have merged their sets into the root, so the
     root's sets are the whole transaction's footprint.  The elastic
     window holds at most two more tracked reads. *)
  let reads ctx =
    Rwsets.Rset.length ctx.rset_snap
    + Rwsets.Rset.length ctx.rset_prot
    + Bool.to_int (Option.is_some ctx.w0)
    + Bool.to_int (Option.is_some ctx.w1)

  (* The versioned commit (DESIGN.md 5k): schedule point, serial gate,
     lock the write set, tick the clock, validate, last poison check,
     install, stage the durable record; then the footprint histograms.
     The attempt bracket makes the entry poison check and records the
     commit. *)
  let commit ctx =
    Runtime.schedule_point ();
    (* Serial-irrevocable gate (see [Attempt]'s escalation): while another
       process holds the fallback token no one else may commit.  Abort
       rather than block, so any locks this transaction holds are released
       for the token holder. *)
    if not (Runtime.Serial.commit_allowed ()) then
      Control.abort_tx Control.Killed;
    let root = ctx.root in
    let owner = root.root_tx and wset = root.wset in
    if Rwsets.Wset.is_empty wset then begin
      (* A read-only transaction serialised at its last read (elastic) or
         at [rv] (every snapshot read was validated against it when made):
         only outherited protected sets must still hold, so that composed
         children appear adjacent. *)
      if
        elastic
        && (not (protected_is_empty ctx))
        && not (validate_protected ~owner ctx)
      then Control.abort_tx Control.Validation_failed
    end
    else begin
      if not (Rwsets.Wset.lock_all wset ~owner) then
        Control.abort_tx Control.Lock_contention;
      (* The locks are held, so [max_version] is stable: it is the GV5
         floor keeping write versions strictly above anything already
         installed at these locations (GV1/GV4 never consult it). *)
      let wv = Clock.tick ~floor:(fun () -> Rwsets.Wset.max_version wset) () in
      (* Full scan: the commit decides against the new write version. *)
      if not (validate ctx) then begin
        Rwsets.Wset.unlock_all_restore wset;
        Control.abort_tx Control.Validation_failed
      end;
      if Option.is_some Runtime.plane.sanitizer then
        Sanitizer.on_commit ~owner ~wv (iter_levels ctx);
      (* Last poison check while the locks are still held: a doomed victim
         must abort here, before installing over a stolen lock.  (The
         abort releases cleanly: CAS-based unlocks skip stolen entries.) *)
      if Option.is_some Runtime.plane.recovery then begin
        try Recovery.check_poisoned ()
        with e ->
          Rwsets.Wset.unlock_all_restore wset;
          raise e
      end;
      Rwsets.Wset.install_and_unlock wset ~wv;
      (* Post-install: stage the durable entries for the WAL.  The attempt
         handler fires the record once this attempt's outcome is a
         definitive commit, and discards it if anything still aborts. *)
      if Runtime.plane.durable then
        Durable.stage ~wv (Rwsets.Wset.capture_durable wset)
    end;
    if Runtime.plane.detailed then
      Stats.record_rwset_sizes stats ~reads:(reads ctx)
        ~writes:(Rwsets.Wset.size wset)

  let new_level ~mode ~root ~parent ~tx =
    { tx_id = tx; mode; root; parent; rset_snap = Rwsets.Rset.create ();
      rset_prot = Rwsets.Rset.create (); w0 = None; w1 = None;
      written = false }

  module A = Attempt.Make (struct
    type nonrec ctx = ctx

    (* The scratch is the root level itself, with its sets and root state:
       a top-level attempt allocates no context.  Nested levels allocate
       fresh per-level sets: they are short-lived and merged away at child
       commit. *)
    type scratch = ctx

    let stats = stats

    let create_scratch () =
      let wset = Rwsets.Wset.create () in
      let root = { root_tx = 0; wset; rv = 0; rec_state = None } in
      new_level ~mode:Regular ~root ~parent:None ~tx:0

    let clear_scratch s =
      Rwsets.Wset.clear s.root.wset;
      Rwsets.Rset.clear s.rset_snap;
      Rwsets.Rset.clear s.rset_prot

    let start s mode ~owner ~rec_state =
      let root = s.root in
      root.root_tx <- owner;
      root.rv <- Clock.now ();
      (* The scratch is in the major heap: skip the write barriers an
         unrecorded attempt or a windowless instance does not need. *)
      if root.rec_state != rec_state then root.rec_state <- rec_state;
      s.tx_id <- owner;
      s.mode <- mode;
      if elastic then begin
        s.w0 <- None;
        s.w1 <- None
      end;
      s.written <- false;
      s

    let commit = commit
    let abort ctx = Rwsets.Wset.unlock_all_restore ctx.root.wset
    let forget ctx = Rwsets.Wset.forget_locks ctx.root.wset
    let rec_state ctx = ctx.root.rec_state
    let tx_id ctx = ctx.tx_id

    let enter parent mode ~tx =
      match C.nesting with
      | Flat ->
        parent.tx_id <- tx;
        parent
      | Outherit | Drop ->
        new_level ~mode ~root:parent.root ~parent:(Some parent) ~tx

    (* Child commit, part 1 (before the commit event): with [Drop], the child
       validates itself at its own commit, as E-STM does. *)
    let validate_child child =
      match C.nesting with
      | Outherit | Flat -> ()
      | Drop ->
        if not (validate_level ~owner:child.root.root_tx child) then
          Control.abort_tx Control.Validation_failed

    (* Child commit, part 2 (after the commit event): outherit the protected
       set to the parent, or drop it (releasing the protection elements — the
       composition-breaking behaviour of Fig. 1).  A flat child already is
       its parent: only the recorded id switches back. *)
    let merge ~parent ~parent_tx child =
      match C.nesting with
      | Flat -> parent.tx_id <- parent_tx
      | Outherit ->
        Rwsets.Rset.append_into ~src:child.rset_snap ~dst:parent.rset_snap;
        Rwsets.Rset.append_into ~src:child.rset_prot ~dst:parent.rset_prot;
        promote_window ~into:parent child;
        if child.written && not parent.written then begin
          parent.written <- true;
          promote_window ~into:parent parent
        end
      | Drop ->
        iter_level
          (fun e -> Txrec.release child.root.rec_state ~pe:e.Rwsets.r_pe)
          child
  end)

  let in_transaction = A.in_transaction

  let atomic ?(mode = Stm_intf.Regular) f =
    A.atomic (if elastic then mode else Regular) f
end

(* The relaxed instances lock at commit, extend a too-new snapshot read
   and have no contention-manager spin. *)
module Relaxed_policy = struct
  let eager_write_lock = false
  let extend_on_read = true
  let priority_spin = 0
  let priority_threshold = max_int
end

(** The paper's OE-STM: elastic transactions that compose. *)
module Oe = Make (struct
  let name = "OE-STM"
  let nesting = Outherit
  let window_size = 2
  include Relaxed_policy
end)

(** Elastic transactions composed without outheritance — the broken
    composition of Fig. 1, kept as an executable counterexample. *)
module E_broken = Make (struct
  let name = "E-STM(drop)"
  let nesting = Drop
  let window_size = 2
  include Relaxed_policy
end)

(** Ablation: a one-read window.  Unsafe for chain updates (an unlink's
    predecessor read escapes validation — see the module comment); the
    test suite demonstrates the lost update by exhaustive exploration. *)
module Oe_window1 = Make (struct
  let name = "OE-STM(w1)"
  let nesting = Outherit
  let window_size = 1
  include Relaxed_policy
end)

(** View transactions (Afek, Morrison, Tzafrir — PODC'10), as discussed in
    Section VIII of the paper:

    "View transactions are a type of relaxed transactions that use
    programmer-specified view pointers to define the critical view of a
    transaction, which is basically equivalent to our notion of a minimal
    protected set.  When committing, a view transaction must pass its
    critical view to its parent transaction (if any), thus satisfying
    outheritance and ensuring composition."

    That is OE-STM's [Regular] mode with [Outherit]: {!read} is the
    critical read (validated against [rv] when made, so the view is a
    snapshot, and outherited by a committing child), {!read_weak} is the
    momentarily-consistent read that never joins the view.  No window, so
    [atomic] ignores [?mode] and e.e.c's elastic traversals stay critical.
    A read-only view transaction serialises at [rv] without revalidating
    at commit, as TL2's read-only commit does (DESIGN.md 5k). *)
module View = Make (struct
  let name = "View-STM"
  let nesting = Outherit
  let window_size = 0
  include Relaxed_policy
end)
