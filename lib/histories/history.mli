(** Histories — finite sequences of events — and the derived notions of
    Section II of the paper: transaction status, the precedence order
    [<H], projections, legality, relax-seriality and minimal protected
    sets.

    The representation is transparent (an event array) so that the sibling
    checker modules can index into positions; treat it as read-only. *)

type t = Event.t array

val of_list : Event.t list -> t
val to_list : t -> Event.t list
val length : t -> int

val events : t -> Event.t list
(** Alias of {!to_list}. *)

val pp : Format.formatter -> t -> unit
(** One numbered event per line. *)

(** {1 Transactions and processes} *)

val proc_of_event : Event.t -> int option
(** The process an event directly names ([None] for operations, which are
    attributed through their transaction). *)

val tx_of_event : Event.t -> int option

val transactions : t -> int list
(** Transactions begun in the history, in begin order. *)

val committed : t -> int list
(** Committed transactions, in commit order. *)

val aborted : t -> int list
val live : t -> int list

val complete : t -> bool
(** No live transactions. *)

val proc_of_tx : t -> int -> int
(** The process that executed the given transaction.
    @raise Invalid_argument if the transaction never began. *)

val procs : t -> int list

val begin_pos : t -> int -> int option
(** Index of the transaction's begin event. *)

val commit_pos : t -> int -> int option

(** {1 Projections} *)

val by_proc : t -> int -> Event.t list
(** [H|p]: events involving process [p], operations attributed through
    their transaction. *)

val objects : t -> int list
(** Objects that appear in operation events, ascending. *)

val pes : t -> int list
(** Protection elements that appear in acquire/release events. *)

val committed_ops : t -> Event.t list
(** [committed-ops(H)]: operation events of committed transactions. *)

(** {1 Precedence} *)

val precedes : t -> int -> int -> bool
(** [precedes h t t'] is [t <H t']: the commit of [t] precedes the begin
    of [t']. *)

val precedence_pairs : t -> (int * int) list
(** All [<H] pairs among committed transactions. *)

val concurrent : t -> int -> int -> bool
(** [t'] begins between [t]'s begin and [t]'s commit. *)

(** {1 Global properties} *)

val legal : env:Spec.env -> t -> bool
(** Every object's committed operation sequence, in history order, is
    acceptable behaviour per its serial specification.  Meaningful for
    (relax-)serial histories. *)

val relax_serial : t -> bool
(** Section II.B: per protection element, acquires and releases alternate
    as matching pairs starting with an acquire. *)

val sequential : t -> bool
(** No two transactions are concurrent. *)

(** {1 Minimal protected sets (Section II.A)} *)

val pmin : t -> int -> int list
(** [pmin h t]: protection elements acquired by [t]'s process during [t]
    whose matching release (the next release by the same process) comes
    after [t]'s commit — or never.  Empty for non-committed transactions. *)

val kernel : t -> int -> int list
(** [ker(t)]: the objects protected by [Pmin(t)] (object ids coincide with
    protection-element ids in this model). *)

(** {1 Well-formedness} *)

val well_formed : t -> (unit, string) result
(** Unique begins; commits/aborts/operations refer to begun transactions
    of the right process; per process, begins and commits/aborts nest like
    brackets (top-level transactions and nested children). *)
