(** Bridge from recorded STM traces ({!Stm_core.Recorder}) to formal
    histories.

    Transactional variables become read/write registers (object id =
    protection-element id = tvar id).  Whole aborted top-level attempts
    are removed — including the events of children that committed inside
    them and their acquire/release events — matching the paper's
    convention of removing all events involving aborted transactions. *)

val to_history : Stm_core.Recorder.event list -> History.t

val register_env : init_repr:(int -> int) -> Spec.env
(** Every object is a register whose initial value is the fingerprint
    ({!Stm_core.Recorder.repr_of_value}) of the corresponding tvar's
    initial content. *)
