(** Classic (non-relaxed) software transactional memories.

    TL2, LSA and SwissTM are instances of the one tvar engine,
    {!Oestm.Make}: invisible reads over versioned locks, a write set
    installed at commit, and a global version clock.  They have no elastic
    window, so every transaction runs [Regular], and they nest flatly: a
    child runs in the parent's context, so every location it accesses stays
    protected until the parent commits — classic transactions satisfy
    outheritance by construction (Section IV of the paper).

    They differ in three published design choices:

    - {b when write locks are acquired} — at commit (TL2) or at the write
      itself (LSA, SwissTM), the latter detecting write/write conflicts
      eagerly;
    - {b whether the read validity interval can be extended} — TL2 aborts a
      read of a version newer than its start time, LSA and SwissTM revalidate
      the read set and slide the interval forward (lazy snapshot);
    - {b the contention manager} — on a write-lock conflict a timid
      transaction aborts itself, while SwissTM's two-phase manager lets
      transactions that already performed enough updates spin briefly for
      the lock before giving up (a simplification of its greedy manager
      that preserves the "writers eventually win" behaviour without remote
      aborts). *)

(** TL2 (Dice, Shalev, Shavit — DISC'06): commit-time locking, no interval
    extension, timid contention management. *)
module Tl2 = Oestm.Make (struct
  let name = "TL2"
  let nesting = Oestm.Flat
  let window_size = 0
  let eager_write_lock = false
  let extend_on_read = false
  let priority_spin = 0
  let priority_threshold = max_int
end)

(** LSA (Riegel, Felber, Fetzer — DISC'06): lazy snapshot with interval
    extension and eager lock acquirement. *)
module Lsa = Oestm.Make (struct
  let name = "LSA"
  let nesting = Oestm.Flat
  let window_size = 0
  let eager_write_lock = true
  let extend_on_read = true
  let priority_spin = 0
  let priority_threshold = max_int
end)

(** SwissTM (Dragojević, Felber, Gramoli, Guerraoui — CACM'11): eager
    write/write conflict detection, lazy read validation with extension,
    two-phase contention manager. *)
module Swisstm = Oestm.Make (struct
  let name = "SwissTM"
  let nesting = Oestm.Flat
  let window_size = 0
  let eager_write_lock = true
  let extend_on_read = true
  let priority_spin = 64
  let priority_threshold = 10
end)
