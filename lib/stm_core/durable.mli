(** Durable-commit plumbing shared by the engines and the write-ahead log
    (lib/persist).

    Engines stage the serialized entries of a just-installed write set;
    the attempt handler ({!Attempt.Make}) fires the staged record through
    {!commit_hook} once the attempt's outcome is a definitive commit, and discards it on abort —
    so a WAL record is only ever appended for a transaction that
    happened, and always after its values are visible in memory.  All
    call sites are guarded by [Runtime.plane.durable]. *)

type staged = {
  s_wv : int;  (** commit version of the installing transaction *)
  s_entries : (int * string) list;
      (** persistent id, serialized committed value *)
}

val register_encoder : tvar_id:int -> pid:int -> (Obj.t -> string) -> unit
(** Map [tvar_id] to persistent id [pid] and a serializer for the tvar's
    content representation.  Must be called before the tvar is shared
    with concurrently committing domains (lookups are unsynchronized);
    [Persist.Ptvar.make] guarantees this by registering at creation. *)

val encoder_for : int -> (int * (Obj.t -> string)) option
(** The persistent id and encoder registered for a tvar id, if any. *)

val stage : wv:int -> (int * string) list -> unit
(** Stage the durable entries of the write set the current domain just
    installed at commit version [wv].  No-op on [[]] (a commit that
    touched no persistent tvar logs nothing).  Overwrites any previous
    staging by this domain. *)

val discard_staged : unit -> unit
(** Drop the current domain's staged record (the attempt aborted). *)

val commit_hook : (staged -> unit) ref
(** Installed by [Persist.enable]: appends the record to the WAL.
    Default no-op. *)

val on_commit : unit -> unit
(** Called by the attempt handler after a successful top-level commit: if the
    current domain staged a record, count it, clear the slot and hand the
    record to {!commit_hook}. *)

val reset_for_testing : unit -> unit
(** Clear encoders, staging and the hook (test isolation). *)
