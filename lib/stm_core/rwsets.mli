(** Read sets and write sets shared by all STM implementations. *)

(** {1 Read entries} *)

type rentry = {
  r_lock : Vlock.t;
  r_seen : int;   (** full stamp observed when the location was read *)
  r_pe : int;     (** protection-element (tvar) id *)
}

val rentry_valid : owner:int -> rentry -> bool
(** The entry's stamp is unchanged, or the location is currently
    write-locked by [owner] itself over the observed version. *)

(** A read set is a vector of read entries.  One location may appear
    several times; validation simply checks every recorded observation. *)
module Rset : sig
  type t

  val create : unit -> t
  val length : t -> int
  val is_empty : t -> bool
  val clear : t -> unit

  val push : t -> rentry -> unit
  val iter : (rentry -> unit) -> t -> unit

  val append_into : src:t -> dst:t -> unit
  (** Append [src]'s entries to [dst] (nesting merge). *)

  val validate : t -> owner:int -> bool
  (** Full scan: every entry's stamp is unchanged, or the location is
      write-locked by [owner] itself at the version that was observed. *)

  val last_scan : t -> int
  (** Number of entries examined by the most recent validation call. *)

  val filter_pe : t -> pe:int -> int
  (** Drop every observation of [pe] (elastic early release); returns how
      many entries were dropped. *)
end

(** {1 Write entries} *)

(** A write set keyed by tvar id: a summary (bloom) word answers the
    common read-of-unwritten-location miss with one load and a branch; a
    hit, or a summary false positive, scans the entries. *)
module Wset : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val is_empty : t -> bool
  val size : t -> int

  val find : t -> 'a Tvar.t -> 'a option
  (** Pending value for [tv], if this write set wrote it. *)

  val add : t -> 'a Tvar.t -> 'a -> bool
  (** Record (or overwrite) the pending value for [tv].  Returns [true] when
      this is the first write to [tv] in this set. *)

  val iter_pes : t -> (int -> unit) -> unit

  val lock_all : t -> owner:int -> bool
  (** Acquire every entry's lock in ascending id order.  On failure releases
      the locks taken so far (restoring their stamps) and returns [false].
      Entries already locked by [owner] (eager STMs) are skipped. *)

  val lock_one : t -> 'a Tvar.t -> owner:int -> bool
  (** Eagerly lock just [tv]'s entry (which must exist); returns false if the
      lock is held by another transaction.  Idempotent for [owner]. *)

  val max_version : t -> int
  (** Highest committed version among the entries' locks (0 when empty).
      Call with the locks held: it is the floor passed to {!Clock.tick} so
      GV5 write versions stay strictly above anything already installed at
      these locations. *)

  val install_and_unlock : t -> wv:int -> unit
  (** Write every pending value into its tvar and release the lock,
      publishing version [wv].  All entries must be locked by the caller.
      Entries whose lock recovery stole mid-install are not
      unlocked (the thief owns them now) and — detection permitting — not
      written; after the loop has released every lock still held, a
      detected steal raises {!Control.Abort_tx}[ Poisoned] and bumps the
      [poisoned_commits] counter, because the write set is then only
      partially published and must not be reported as a commit.  The
      steal-vs-write race this leaves open is documented in
      DESIGN.md §5h. *)

  val unlock_all_restore : t -> unit
  (** Release every lock this set acquired, restoring pre-lock stamps (abort
      path).  The releases are CAS-based and skip entries whose lock was
      stolen in the meantime. *)

  val forget_locks : t -> unit
  (** Mark every entry unlocked {e without} releasing anything: the
      simulated-crash path, where the orphaned locks are deliberately left
      held for recovery to reclaim while the scratch set is reused. *)

  val capture_durable : t -> (int * string) list
  (** Serialize the pending values of entries whose tvar has a registered
      {!Durable} encoder, as [(persistent id, bytes)] pairs; [[]] when the
      set touches no persistent tvar.  Call right after
      {!install_and_unlock} (pending values are attempt-private and
      outlive the locks), guarded on [Runtime.plane.durable]. *)
end
