(** The interface every STM in this repository implements.

    [mode] selects the transactional model of one [atomic] block, following
    the elastic-transaction API of Felber et al. (DISC'09): [Elastic]
    transactions may ignore conflicts on their read-only prefix, [Regular]
    transactions detect every conflict.  Classic STMs (TL2, LSA, SwissTM)
    treat [Elastic] as [Regular].

    Nested [atomic] calls compose: calling [atomic] while a transaction is
    already running on the current (logical) process creates a child
    transaction.  Whether the child passes its conflict information to the
    parent on commit — the paper's {e outheritance} — is a property of each
    implementation (see {!Oestm}). *)

type mode = Regular | Elastic

module type S = sig
  val name : string

  type 'a tvar
  (** A transactional variable. *)

  type ctx
  (** Handle on the running transaction, passed to the body of [atomic]. *)

  val tvar : 'a -> 'a tvar
  (** Create a transactional variable (outside or inside transactions). *)

  val read : ctx -> 'a tvar -> 'a
  (** Transactional read.  Aborts (and retries) on conflict. *)

  val write : ctx -> 'a tvar -> 'a -> unit
  (** Transactional write.  Visible to other transactions at commit. *)

  val atomic : ?mode:mode -> (ctx -> 'a) -> 'a
  (** Run a transaction to successful commit, retrying on aborts.  When
      called inside a running transaction of this STM on the same logical
      process, runs the body as a child transaction of it instead.

      Nesting is flat: a user exception (anything but an abort or a
      simulated crash) escaping a child does not roll back the child's
      writes.  The child is closed as committed, and if the parent catches
      the exception and commits, the child's writes commit with it.  Only
      an exception escaping the top-level [atomic] rolls the transaction
      back.

      @param mode defaults to [Regular].
      @raise Control.Starvation if {!Runtime.retry_cap} is exceeded. *)

  val peek : 'a tvar -> 'a
  (** Non-transactional read of the latest committed value; for
      initialisation, verification and statistics only. *)

  val unsafe_write : 'a tvar -> 'a -> unit
  (** Non-transactional store; only valid while no transaction is live. *)

  val tvar_id : 'a tvar -> int
  (** The protection-element id of the variable (Section II.A). *)

  val stats : Stats.t
  (** Commit/abort counters of this STM instance. *)

  val in_transaction : unit -> bool
  (** Whether the current logical process is inside a transaction of this
      STM. *)
end
