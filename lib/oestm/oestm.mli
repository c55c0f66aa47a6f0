(** The tvar engine: OE-STM — elastic transactions with outheritance (the
    paper's Section V) — and its instances.

    See the implementation header for the full design discussion.  The
    essentials:

    - [Elastic] transactions keep a two-read sliding window over their
      read-only prefix, ignoring conflicts on everything older (the
      elastic relaxation of Felber et al., DISC'09); from the first write
      on, the window is promoted into the protected read set and every
      further access is tracked.
    - Nested transactions either {e outherit} — pass their protected sets
      to the parent at commit, Fig. 4 of the paper — or {e drop} them,
      which reproduces the broken composition of Fig. 1 and is kept as an
      executable counterexample — or run {e flat} in the parent's context.
    - {!View} runs the same engine as Section VIII's view transactions:
      regular reads form the critical view, {!S.read_weak} reads are
      never revalidated.
    - {!Make} is the one tvar engine: every instance here and the classic
      baselines in {!Classic_stm} (TL2, LSA, SwissTM) share its read,
      write, extension, nesting and versioned commit path (DESIGN.md
      §5k). *)

type nesting =
  | Outherit  (** child passes read set, window and writes to its parent *)
  | Drop      (** child conflict information is discarded at child commit *)
  | Flat      (** child runs in its parent's context; only the recorded
                  transaction id switches *)

module type CONFIG = sig
  val name : string
  val nesting : nesting

  val window_size : int
  (** Number of most-recent reads an elastic transaction keeps mutually
      validated before its first write.  2 is what linked-structure
      updates require; 1 is the ablation that loses updates on chain
      unlinks (kept for the regression test); 0 runs every transaction
      [Regular], whatever [?mode] says. *)

  val eager_write_lock : bool
  (** Acquire the write lock at the first [write] instead of at commit. *)

  val extend_on_read : bool
  (** Extend the validity interval (revalidating the read set) instead of
      aborting when a too-new version is read. *)

  val priority_spin : int
  (** Bounded number of retries a priority transaction performs on an
      eager write-lock conflict before aborting.  0 = timid. *)

  val priority_threshold : int
  (** Number of writes after which a transaction gains priority;
      [max_int] = never. *)
end

(** {!Stm_core.Stm_intf.S} extended with DSTM-style early release
    (Section II.A: the protection element of a location can be released
    before commit by an explicit call; the caller takes responsibility
    that its postcondition no longer depends on the location). *)
module type S_EXT = sig
  include Stm_core.Stm_intf.S

  val release : ctx -> 'a tvar -> unit
  (** Drop every tracked read of the variable from the running
      transaction: later conflicts on it no longer abort this
      transaction.  Writes are unaffected. *)
end

(** The engine interface, extended with the view-transaction relaxation. *)
module type S = sig
  include Stm_core.Stm_intf.S

  val read_weak : ctx -> 'a tvar -> 'a
  (** A consistent read that never joins the critical view: later changes
      to the location do not abort this transaction.  The caller asserts
      the transaction's correctness does not depend on the value staying
      current. *)
end

(** The tvar engine.  Each instance picks the signature it stands for:
    {!S_EXT} (elastic instances), {!S} (View-STM) or
    {!Stm_core.Stm_intf.S} (the classic baselines). *)
module Make (C : CONFIG) : sig
  include S_EXT with type 'a tvar = 'a Stm_core.Tvar.t

  val read_weak : ctx -> 'a tvar -> 'a
end

(** The paper's OE-STM: elastic transactions that compose. *)
module Oe : S_EXT with type 'a tvar = 'a Stm_core.Tvar.t

(** Elastic transactions composed without outheritance — the broken
    composition of Fig. 1, kept as an executable counterexample. *)
module E_broken : S_EXT with type 'a tvar = 'a Stm_core.Tvar.t

(** Ablation: a one-read window ("the immediate past read", read
    literally).  Unsafe for chain updates; see [test/test_ablation.ml]. *)
module Oe_window1 : S_EXT with type 'a tvar = 'a Stm_core.Tvar.t

(** View transactions (Afek, Morrison, Tzafrir — PODC'10; Section VIII of
    the paper): the programmer names the {e critical view} — the reads the
    transaction's correctness depends on — with {!S.read}; {!S.read_weak}
    reads are momentarily consistent and never revalidated.  A child
    passes its view to its parent at commit (outheritance), so
    compositions are atomic with respect to their critical views.  It has
    no window, so every transaction runs [Regular], whatever [?mode] says;
    a read-only one commits at its snapshot without revalidating. *)
module View : S with type 'a tvar = 'a Stm_core.Tvar.t
