(** Minimal growable array used for read/write sets.

    Not thread-safe: each transaction context owns its own vectors.  The
    backing store is reused across transaction retries to keep allocation
    off the hot path. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused slots (required because OCaml arrays cannot hold
    uninitialised values). *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val clear : 'a t -> unit
(** Resets the length to zero and wipes the freed slots to the dummy, so
    cleared elements become collectable; does not shrink the backing
    store. *)

val iter : ('a -> unit) -> 'a t -> unit
val exists : ('a -> bool) -> 'a t -> bool
val for_all : ('a -> bool) -> 'a t -> bool
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val sort : ('a -> 'a -> int) -> 'a t -> unit
(** Sorts the live prefix in place without allocating (not stable). *)

val append_into : src:'a t -> dst:'a t -> unit
(** Pushes every element of [src] onto [dst]. *)

val filter_in_place : ('a -> bool) -> 'a t -> int
(** Keeps only the elements satisfying the predicate, preserving order;
    returns how many were dropped.  Freed slots are wiped to the dummy. *)
