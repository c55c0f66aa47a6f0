(** Registry of in-flight top-level transactions.

    One cache-line-padded slot per transacting domain, published while
    recovery ({!Recovery}) is enabled: the root transaction id about to
    acquire locks, a generation counter used to doom resurrected victims,
    and a monotonic heartbeat refreshed at every {!Runtime.schedule_point}.

    Ordering contract: {!publish} happens before the first lock
    acquisition of the attempt, {!clear} after the last release.  A lock
    owner with no live slot therefore exited abnormally — unless the table
    ever saturated (a slot claim failed), after which absence stops
    implying death and only explicitly dead/stale slots are reclaimable. *)

type status =
  | Live   (** slot present, heartbeat within the lease *)
  | Stale  (** heartbeat older than the lease *)
  | Dead   (** domain exited / crashed, or never registered *)

val status_name : status -> string

val publish : owner:int -> unit
(** Record [owner] as this domain's in-flight root transaction, refresh
    the heartbeat and snapshot the slot generation.  Claims a slot on
    first use; silently a no-op if the table is saturated. *)

val clear : unit -> unit
(** The in-flight transaction finished (committed or aborted cleanly). *)

val mark_crashed : unit -> unit
(** Mark this domain's slot dead without clearing the owner: called by
    engines on a simulated crash ({!Control.Crashed}) so the orphaned
    locks remain attributed to a visibly-dead owner. *)

val heartbeat : unit -> unit
(** Refresh this domain's heartbeat; installed as
    {!Runtime.heartbeat_hook} by {!Recovery.enable}. *)

val poisoned : unit -> bool
(** This domain's slot generation moved past the value snapshotted at
    {!publish}: a contender doomed this transaction while stealing one of
    its locks.  Engines check this before installing a write set. *)

val doom : owner:int -> bool
(** Bump the generation of the slot currently publishing [owner], dooming
    that transaction.  [false] if no slot publishes [owner].  Called by
    {!Recovery} immediately {e before} stealing a lock, so the victim is
    poisoned first and can never install over a stolen lock. *)

val doom_domain : domain:int -> bool
(** Like {!doom}, but keyed by domain id: used by the serial-token
    reclaim, whose holder is a domain rather than a transaction.  [false]
    if the domain has no slot. *)

val owner_doomed : owner:int -> bool
(** The slot publishing [owner] has been doomed since its last publish.
    Used by the sanitizer to accept steals whose victim was doomed before
    the steal event was observed. *)

val domain_doomed : domain:int -> bool
(** Same, keyed by domain id (serial-token steals). *)

val owner_status : lease_ns:int -> owner:int -> status
(** Status of the transaction id [owner].  Absence maps to [Dead] (the
    publish-before-lock contract) unless the table is saturated, in which
    case absence conservatively maps to [Live]. *)

val domain_status : lease_ns:int -> domain:int -> status
(** Status of the domain (process) id [domain]; same absence rule. *)

val live_count : unit -> int
(** Number of slots currently publishing a live in-flight transaction
    (diagnostics / tests only). *)
