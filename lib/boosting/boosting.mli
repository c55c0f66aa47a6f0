(** Transactional boosting (Herlihy & Koskinen, PPoPP'08), composed
    through outheritance: a boosted transaction pessimistically acquires
    {e abstract locks} (one per semantic entity) before invoking an
    operation of an underlying linearizable object and records an inverse
    in an undo log; on abort the log runs backwards and the locks are
    released.  Nested [atomic] blocks share the root's lock table and
    undo log, so a child's abstract locks are held until the {e root}
    commits — outheritance, and with it composition, by construction
    (Section VIII of the paper).

    Boosting takes no part in durability: a boosted commit appends no
    write-ahead-log record, and a crash loses its undo log (DESIGN.md
    5h). *)

exception Too_many_retries of string
(** Alias of {!Stm_core.Control.Starvation}: raised when the retry cap is
    exceeded under [`Raise] starvation mode. *)

val abstract_lock : unit -> Stm_core.Vlock.t
(** A fresh abstract lock.  It is a {!Stm_core.Vlock.t} whose
    protection-element id comes from the tvar id supply, so acquisition,
    release, recovery's steal, the sanitizer, tracing and fault injection
    treat it exactly like a tvar's lock. *)

type tx
(** Handle on the running boosted transaction, passed to the body of
    {!atomic}. *)

val stats : Stm_core.Stats.t
(** Commit/abort counters of the boosting engine. *)

val in_transaction : unit -> bool

val acquire : tx -> Stm_core.Vlock.t -> unit
(** Acquire an abstract lock for the running transaction (idempotent);
    aborts the transaction if the lock stays unavailable past the
    transaction's patience.  The lock is outherited: released only when
    the root commits or aborts.  With recovery on, a lock held by a dead
    or stale owner is stolen ({!Stm_core.Recovery.try_steal_vlock}). *)

val log_undo : tx -> (unit -> unit) -> unit
(** Record the inverse of an operation about to be applied. *)

val atomic : (tx -> 'a) -> 'a
(** Run a boosted transaction to successful commit.  Nested calls share
    the root transaction's lock table and undo log. *)

(** A sequential data type that can be boosted: a set with membership,
    insertion and removal, each invertible. *)
module type BOOSTABLE_SET = sig
  type elt
  type t

  val create : unit -> t
  val contains : t -> elt -> bool
  val add : t -> elt -> bool
  val remove : t -> elt -> bool
end

(** Boost a sequential set into a composable concurrent one: each key
    hashes to one of [stripes] abstract locks; operations acquire the
    key's lock, apply the sequential operation, and log the inverse. *)
module Boost (Base : BOOSTABLE_SET) (_ : sig
  val hash : Base.elt -> int
end) : sig
  type elt = Base.elt
  type t

  val create : ?stripes:int -> unit -> t
  val contains : t -> elt -> bool
  val add : t -> elt -> bool
  val remove : t -> elt -> bool

  (** Compositions: one transaction spanning several operations, atomic
      thanks to outherited abstract locks. *)

  val add_all : t -> elt list -> bool
  val remove_all : t -> elt list -> bool
  val insert_if_absent : t -> ins:elt -> guard:elt -> bool
  val move : src:t -> dst:t -> elt -> bool
end
