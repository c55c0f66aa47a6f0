(* Stamp layout: [version lsl 1] lor [locked bit].  A locked stamp keeps the
   version that was current when the lock was taken, so readers that observe
   a locked stamp still learn the last committed version, and an abort can
   restore the lock by clearing the bit.

   Every lock knows its protection-element id [pe] so that stamp loads and
   lock transitions can report themselves to the deterministic scheduler's
   access trace ([Runtime.plane.trace]; one load and branch otherwise). *)

type t = {
  stamp_cell : int Atomic.t;
  claim : int Atomic.t;     (* holder identity, -1 = none *)
  pe : int;
}

let no_pe = -2

(* Per-location locks are not padded.  There is one per tvar, and
   padding the record and its stamp cell to a cache line each made a tvar
   ~72 words where a sequential list node is 3: a 2^12-node list no longer
   fitted in L2, and every traversal paid for it.  Unpadded, a tvar is 12
   words (tvar 4, lock 4, stamp 2, claim 2).  False sharing between
   neighbouring locks costs less than that footprint even where locations
   are written concurrently: on bench/suite's 2-worker [list-contend]
   workload (2 vCPUs, 5 alternating pairs, both sides hashing only while
   recording) unpadded locks beat padded ones in every pair, OE-STM by
   14% and TL2 by 3% in the median.  Padding stays on the cells every
   domain hits: the clock, [Runtime.Serial]'s holder, registry slots
   and stats shards. *)
let create ?(pe = no_pe) () =
  { stamp_cell = Atomic.make 0; claim = Atomic.make (-1); pe }

let pe t = t.pe

(* The events are built inside the match: an untraced run allocates none. *)
let[@inline] trace_read t =
  match Runtime.plane.trace with Some tr -> tr (Runtime.Read t.pe) | None -> ()

let[@inline] trace_lock t =
  match Runtime.plane.trace with Some tr -> tr (Runtime.Lock t.pe) | None -> ()

let stamp t =
  trace_read t;
  Atomic.get t.stamp_cell

let locked s = s land 1 = 1
let version_of s = s lsr 1

(* Acquisition returns the observed pre-lock stamp, or -1 on failure.
   Write sets record the stamp per entry and release with the CAS-based
   [unlock_restore_from]/[unlock_to_from]: once a thief has stolen the
   lock, the current stamp may belong to the thief's next locker, so only
   the locker's own copy identifies its lock.

   Acquisition is a two-word protocol: the locker first CASes [claim]
   from -1 to its own id, and only then CASes the stamp.  While a claim
   is held no other locker can take the stamp, so a locked stamp always
   pairs with its holder's claim; the claim is cleared only {e after} the
   stamp transition on release (and by the thief after a steal), so the
   invariant

     locked stamp /\ claim >= 0  ==>  claim = current holder

   holds at every instant.  Recovery reads the victim of a steal from
   the claim, so dooming and stealing can never target a stale
   predecessor. *)
let try_lock_save t ~owner =
  trace_lock t;
  if Option.is_some Runtime.plane.faults && Faults.inject_lock_fail () then -1
  else
  let s = Atomic.get t.stamp_cell in
  if locked s then -1
  else if Atomic.compare_and_set t.claim (-1) owner then begin
    if Atomic.compare_and_set t.stamp_cell s (s lor 1) then begin
      (match Runtime.plane.sanitizer with
      | Some san ->
        san (Runtime.San_acquire { pe = t.pe; owner; version = s lsr 1 })
      | None -> ());
      s
    end
    else begin
      (* The lock was taken and released (or stolen) between the stamp
         read and our claim: back out so the next locker can claim. *)
      ignore (Atomic.compare_and_set t.claim owner (-1));
      -1
    end
  end
  else -1

let try_lock t ~owner = try_lock_save t ~owner >= 0

let holder t = Atomic.get t.claim

let locked_by t ~owner =
  trace_read t;
  let s = Atomic.get t.stamp_cell in
  locked s && Atomic.get t.claim = owner

(* CAS-based release: succeeds only if the stamp is still the locked
   image of [saved], i.e. the lock was not stolen.  ABA is impossible
   because stolen locks transition to a strictly larger (poisoned)
   version and versions never decrease.  The holder's claim is cleared
   after the stamp transition by a CAS from the holder's id, with no
   [claim >= 0] guard, so a lock taken under any id (a negative one too)
   is released whole.  A release whose CAS failed must not touch the
   claim: the thief owns the handover and a new locker's claim may be in
   the cell.  The sanitizer event fires between the stamp transition and
   the claim clear: no locker can take the lock while the claim is held,
   so no acquire event can overtake the release. *)
let release t ~saved ~next ~restore =
  trace_lock t;
  let me = Atomic.get t.claim in
  let released = Atomic.compare_and_set t.stamp_cell (saved lor 1) next in
  if released then begin
    (match Runtime.plane.sanitizer with
    | Some san ->
      san
        (Runtime.San_release
           { pe = t.pe;
             owner = me;
             version = (if restore then None else Some (version_of next)) })
    | None -> ());
    ignore (Atomic.compare_and_set t.claim me (-1))
  end;
  released

let unlock_restore_from t ~saved = release t ~saved ~next:saved ~restore:true

let unlock_to_from t ~saved ~version =
  release t ~saved ~next:(version lsl 1) ~restore:false

let unlock_restore t =
  ignore (unlock_restore_from t ~saved:(Atomic.get t.stamp_cell land lnot 1))

(* Recovery-only: transition a lock observed locked (stamp = [observed])
   to unlocked poisoned [version].  Two things make the steal sound: the
   [victim] identity comes from the claim cell ([holder]), which under the
   acquisition protocol above can only name the actual current holder of a
   locked stamp; and the CAS from the exact observed stamp means that if
   the victim meanwhile released (or another thief won), the stamp moved
   and the steal fails harmlessly.

   On success the claim is displaced unconditionally and returned.  The
   cell has been continuously occupied since before [observed] was locked
   (a holder's claim clears only after its stamp transition, and a failed
   CAS-release does not clear), so the displaced value is exactly whoever
   held the lock at the instant it was taken.  Normally that is [victim];
   it differs only when the lock was released and re-acquired at the very
   same stamp (a restore/relock ABA) between the thief's reads and this
   CAS — the caller must doom that holder too, since the exact-stamp CAS
   cannot distinguish the two histories. *)
let steal t ~observed ~victim ~version =
  trace_lock t;
  if
    locked observed
    && Atomic.compare_and_set t.stamp_cell observed (version lsl 1)
  then begin
    (* Report before displacing the claim, for the same reason as
       [release] above. *)
    (match Runtime.plane.sanitizer with
    | Some san ->
      san (Runtime.San_steal { pe = t.pe; victim; version = Some version })
    | None -> ());
    Some (Atomic.exchange t.claim (-1))
  end
  else None

let pp ppf t =
  let s = Atomic.get t.stamp_cell in
  Format.fprintf ppf "v%d%s" (version_of s) (if locked s then "/locked" else "")
