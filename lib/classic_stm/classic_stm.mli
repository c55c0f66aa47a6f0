(** Classic (non-relaxed) software transactional memories — the paper's
    baselines, as instances of the one tvar engine {!Oestm.Make} that
    differ in three published design choices (see the implementation
    header).  They have no elastic window, so [~mode:Elastic] runs
    [Regular], and they nest flatly (a child runs in the parent's context),
    so they satisfy outheritance — and hence composition — by
    construction, at the price of detecting every conflict of the
    composition's whole footprint. *)

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
