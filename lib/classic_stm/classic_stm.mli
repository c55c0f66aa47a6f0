(** Classic (non-relaxed) software transactional memories — the paper's
    baselines, sharing one engine parameterised by three published design
    choices.  See the implementation header for the design discussion.

    All three treat [~mode:Elastic] as [Regular] and nest flatly (a child
    shares the parent's read and write sets), so they satisfy outheritance
    — and hence composition — by construction, at the price of detecting
    every conflict of the composition's whole footprint. *)

(** TL2 (Dice, Shalev, Shavit — DISC'06): commit-time locking, no interval
    extension, timid contention management. *)
module Tl2 : Stm_core.Stm_intf.S with type 'a tvar = 'a Stm_core.Tvar.t

(** LSA (Riegel, Felber, Fetzer — DISC'06): lazy snapshot with interval
    extension and eager lock acquirement. *)
module Lsa : Stm_core.Stm_intf.S with type 'a tvar = 'a Stm_core.Tvar.t

(** SwissTM (Dragojević, Felber, Gramoli, Guerraoui — CACM'11): eager
    write/write conflict detection, lazy read validation with extension,
    two-phase contention manager (simplified: priority transactions spin
    for contended locks instead of remotely aborting their enemies). *)
module Swisstm : Stm_core.Stm_intf.S with type 'a tvar = 'a Stm_core.Tvar.t
