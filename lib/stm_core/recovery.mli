(** Lease-based orphan-lock reclamation.

    While enabled, every top-level transaction publishes itself in the
    {!Registry} and heartbeats at each scheduling point.  A contender that
    observes a {!Vlock}, boosting abstract lock, or the {!Runtime.Serial}
    token held by an owner whose slot is dead or stale past the lease may
    steal it: the victim's slot is doomed first (so a resurrected victim
    aborts {!Control.Poisoned} instead of installing over a stolen lock)
    and versioned locks transition to a bumped, "poisoned" version minted
    above both the observed version and the global clock.

    Soundness rests on the lease being much longer than any honest
    lock-hold window — see DESIGN.md §5h.  Recovery is inert under the
    deterministic scheduler ({!Runtime.simulated}): simulated time has no
    leases. *)

val default_lease_ns : int
(** 50 ms — comfortably above any honest lock-hold window on a healthy
    system, short enough that a wedged workload recovers promptly. *)

val enable : ?lease_ns:int -> unit -> unit
(** Turn recovery on: sets {!Runtime.recovery}, installs the heartbeat and
    serial-reclaim hooks, and records the lease (default
    {!default_lease_ns}).  Locks taken before this call are reclaimable
    too, so call it while no transaction is in flight: one that started
    with recovery off has no registry slot, and its locks read as
    orphaned. *)

val disable : unit -> unit

val enabled : unit -> bool

val lease_ns : unit -> int
(** Current lease in nanoseconds. *)

val try_steal_vlock : Vlock.t -> bool
(** Attempt to reclaim a versioned lock held by a dead/stale owner.
    [true]: the lock is now unlocked at a poisoned version and the caller
    may retry its acquisition or read.  [false]: the owner is live, the
    stamp moved (owner released, or another thief won), or recovery does
    not apply here. *)

val try_steal_owner : holder:int Atomic.t -> pe:int -> bool
(** Same for an abstract lock represented as an owner cell (-1 = free):
    dooms the victim, then CASes the cell free on its behalf.  [pe] names
    the lock in sanitizer events. *)

val check_poisoned : unit -> unit
(** Abort the current transaction with {!Control.Poisoned} if its registry
    slot was doomed by a thief.  Engines call this on entry to commit and
    again immediately before installing their write set. *)
