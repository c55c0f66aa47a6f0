(** Versioned write-locks.

    Every transactional variable carries one versioned lock.  The lock packs
    a version number and a locked bit into a single [int Atomic.t] so that a
    reader can obtain both with one atomic load.  The holder's identity
    lives in a second atomic cell, the claim, which every acquisition CASes
    before the stamp and every release clears after it. *)

type t

val create : ?pe:int -> unit -> t
(** A fresh unlocked lock at version 0.  [pe] is the protection-element id
    under which the lock reports its accesses to the deterministic
    scheduler's trace (defaults to an anonymous id); for a tvar's lock it is
    the tvar id. *)

val pe : t -> int
(** Protection-element id passed at creation. *)

val stamp : t -> int
(** Atomic load of the current stamp (version and locked bit together). *)

val locked : int -> bool
(** Whether a stamp obtained from {!stamp} has the locked bit set. *)

val version_of : int -> int
(** Version number carried by a stamp (valid for locked stamps too: a locked
    stamp still exposes the version that was current when the lock was
    taken). *)

val try_lock : t -> owner:int -> bool
(** Attempt to acquire the lock for transaction [owner].  Returns [false]
    without blocking if the lock is already held.  Acquisition first
    claims the holder-identity cell read by {!holder} and only then CASes
    the stamp, so a thief can never pair a locked stamp with a stale
    previous owner. *)

val try_lock_save : t -> owner:int -> int
(** Like {!try_lock}, but returns the pre-lock stamp observed by the
    winning CAS, or -1 on failure.  Callers whose lock may be stolen
    record this stamp and release through
    {!unlock_restore_from}/{!unlock_to_from}. *)

val holder : t -> int
(** The claim cell: the identity CASed in {e before} the stamp CAS by
    every acquisition and cleared only {e after} the stamp transition of
    a release (or by the thief after a steal).  Invariant: a locked stamp
    together with [holder >= 0] always names the actual current holder —
    never a stale predecessor — which is what makes doom-then-steal
    target the right victim.  [-1] means the lock is unlocked or a
    release/steal handover is in flight. *)

val locked_by : t -> owner:int -> bool
(** [locked_by l ~owner] is true iff [l] is currently locked and its
    claim names [owner].  Used for read-own-lock checks. *)

val unlock_restore : t -> unit
(** Release the lock, restoring the version it had when it was taken
    (clears the locked bit).  A no-op on an unlocked lock. *)

val unlock_restore_from : t -> saved:int -> bool
(** CAS-based {!unlock_restore} from a stamp recorded by
    {!try_lock_save}: releases only if the lock still carries the locked
    image of [saved] — i.e. it was not stolen.  [false] means a thief took
    the lock; the caller must treat it as no longer its own. *)

val unlock_to_from : t -> saved:int -> version:int -> bool
(** Release the lock taken at stamp [saved] (recorded by
    {!try_lock_save}), publishing [version] as the new version (used at
    commit after installing a new value); same steal semantics as
    {!unlock_restore_from}. *)

val steal : t -> observed:int -> victim:int -> version:int -> int option
(** Recovery-only: transition the lock from the locked stamp [observed]
    to unlocked poisoned [version] (which must be strictly greater than
    [version_of observed]), displacing the claim cell.  [None] if the
    stamp moved since it was observed (the steal failed harmlessly);
    [Some displaced] on success, where [displaced] identifies whoever
    actually held the lock at the instant it was taken — normally
    [victim], but a different id when the lock cycled through a
    release/re-acquire back to the same stamp, in which case the caller
    must doom [displaced] as well.  Only {!Recovery.try_steal_vlock} may
    call this, with [victim] read from {!holder} and the victim's registry
    slot already doomed. *)

val pp : Format.formatter -> t -> unit
