(* Stamp layout: [version lsl 1] lor [locked bit].  A locked stamp keeps the
   version that was current when the lock was taken, so readers that observe
   a locked stamp still learn the last committed version.

   Every lock knows its protection-element id [pe] so that stamp loads and
   lock transitions can report themselves to the deterministic scheduler's
   access trace (guarded on [Runtime.tracing]; free otherwise). *)

type t = {
  stamp_cell : int Atomic.t;
  claim : int Atomic.t;     (* recovery-mode holder identity, -1 = none *)
  mutable owner_id : int;   (* written only by the lock holder *)
  mutable saved : int;      (* stamp to restore on abort, ditto *)
  pe : int;
}

let no_pe = -2

(* Per-location locks are not padded.  There is one per tvar, and
   padding the record and its stamp cell to a cache line each made a tvar
   ~72 words where a sequential list node is 3: a 2^12-node list no longer
   fitted in L2, and every traversal paid for it.  Unpadded, a tvar is 14
   words (tvar 4, lock 6, stamp 2, claim 2).  False sharing between
   neighbouring locks costs less than that footprint even where locations
   are written concurrently: on bench/suite's 2-worker [list-contend]
   workload (2 vCPUs, 5 alternating pairs, both sides hashing only while
   recording) unpadded locks beat padded ones in every pair, OE-STM by
   14% and TL2 by 3% in the median.  Padding stays on the cells every
   domain hits: the clock, [Runtime.Serial]'s holder, registry slots,
   stats shards and boosting's durable floor. *)
let create ?(pe = no_pe) () =
  { stamp_cell = Atomic.make 0;
    claim = Atomic.make (-1);
    owner_id = -1;
    saved = 0;
    pe }

let pe t = t.pe

let stamp t =
  if !Runtime.tracing then Runtime.trace_access (Runtime.Read t.pe);
  Atomic.get t.stamp_cell

let locked s = s land 1 = 1
let version_of s = s lsr 1

(* The acquisition core, shared by [try_lock] and [try_lock_save]:
   returns the observed pre-lock stamp, or -1 on failure.

   [owner_id] is a plain field written only after the winning stamp CAS,
   which is fine for its consumers (self-ownership checks) but means a
   concurrent reader can pair a freshly locked stamp with the *previous*
   owner.  Recovery must never do that — dooming and stealing on a stale
   identity would poison the wrong transaction and take the lock from its
   live holder — so under recovery the acquisition is a two-word protocol:
   the locker first CASes [claim] from -1 to its own id, and only then
   CASes the stamp.  While a claim is held no other recovery-mode locker
   can take the stamp, so a locked stamp always pairs with its holder's
   claim; the claim is cleared only {e after} the stamp transition on
   release (and by the thief after a steal), so the invariant

     locked stamp /\ claim >= 0  ==>  claim = current holder

   holds at every instant.  Recovery reads identity exclusively through
   [holder] (the claim), never through [owner_id]. *)
let acquire_from t ~owner s =
  if Atomic.compare_and_set t.stamp_cell s (s lor 1) then begin
    t.owner_id <- owner;
    t.saved <- s;
    if !Runtime.sanitizer then
      Runtime.sanitizer_event
        (Runtime.San_acquire { pe = t.pe; owner; version = s lsr 1 });
    s
  end
  else -1

let try_lock_aux t ~owner =
  if !Runtime.tracing then Runtime.trace_access (Runtime.Lock t.pe);
  if !Runtime.fault_injection && Faults.inject_lock_fail () then -1
  else
  let s = Atomic.get t.stamp_cell in
  if locked s then -1
  else if not !Runtime.recovery then acquire_from t ~owner s
  else if Atomic.compare_and_set t.claim (-1) owner then begin
    let r = acquire_from t ~owner s in
    (* With the claim held the stamp cannot be locked by anyone else, so
       this back-out is only reachable in mixed-mode runs (a lock acquired
       before recovery was enabled, released concurrently). *)
    if r < 0 then ignore (Atomic.compare_and_set t.claim owner (-1));
    r
  end
  else -1

let try_lock t ~owner = try_lock_aux t ~owner >= 0

(* Like [try_lock], but returns the observed pre-lock stamp (-1 on
   failure).  Callers that may have their lock stolen (recovery enabled)
   record the returned stamp per write-set entry and release with the
   CAS-based [unlock_restore_from]/[unlock_to_from]: the shared [saved]
   field can be overwritten by a thief's next locker before the victim
   unwinds, so it cannot be trusted for a CAS-based release. *)
let try_lock_save t ~owner = try_lock_aux t ~owner

let owner t = t.owner_id

let holder t = Atomic.get t.claim

(* Clear [me]'s claim after the stamp transition of a release.  Only
   called on paths where the caller still held the lock at the stamp
   transition (so the claim is necessarily [me] or already -1); a release
   CAS that failed because the lock was stolen must NOT call this — by
   then the thief owns the handover and a new locker's claim may be in
   the cell.  The cheap read makes the recovery-off case (claim never
   set) free. *)
let clear_claim t ~me =
  if Atomic.get t.claim >= 0 then
    ignore (Atomic.compare_and_set t.claim me (-1))

let owner_opt t =
  let s = Atomic.get t.stamp_cell in
  if locked s then Some t.owner_id else None

let locked_by t ~owner =
  if !Runtime.tracing then Runtime.trace_access (Runtime.Read t.pe);
  let s = Atomic.get t.stamp_cell in
  locked s && t.owner_id = owner

let unlock_restore t =
  if !Runtime.tracing then Runtime.trace_access (Runtime.Lock t.pe);
  if !Runtime.sanitizer then
    Runtime.sanitizer_event
      (Runtime.San_release { pe = t.pe; owner = t.owner_id; version = None });
  let me = t.owner_id in
  Atomic.set t.stamp_cell t.saved;
  clear_claim t ~me

let unlock_to t ~version =
  if !Runtime.tracing then Runtime.trace_access (Runtime.Lock t.pe);
  if !Runtime.sanitizer then
    Runtime.sanitizer_event
      (Runtime.San_release
         { pe = t.pe; owner = t.owner_id; version = Some version });
  let me = t.owner_id in
  Atomic.set t.stamp_cell (version lsl 1);
  clear_claim t ~me

(* CAS-based releases, used when recovery may steal the lock out from
   under its owner: the release succeeds only if the stamp is still the
   locked image of [saved], i.e. the lock was not stolen.  ABA is
   impossible because stolen locks transition to a strictly larger
   (poisoned) version and versions never decrease.  The sanitizer event
   fires between the stamp transition and the claim clear: no recovery-mode
   locker can take the lock while the claim is held, so no acquire event
   can overtake the release. *)
let unlock_restore_from t ~saved =
  if !Runtime.tracing then Runtime.trace_access (Runtime.Lock t.pe);
  let me = t.owner_id in
  let released = Atomic.compare_and_set t.stamp_cell (saved lor 1) saved in
  if released then begin
    if !Runtime.sanitizer then
      Runtime.sanitizer_event
        (Runtime.San_release { pe = t.pe; owner = me; version = None });
    clear_claim t ~me
  end;
  released

let unlock_to_from t ~saved ~version =
  if !Runtime.tracing then Runtime.trace_access (Runtime.Lock t.pe);
  let me = t.owner_id in
  let released =
    Atomic.compare_and_set t.stamp_cell (saved lor 1) (version lsl 1)
  in
  if released then begin
    if !Runtime.sanitizer then
      Runtime.sanitizer_event
        (Runtime.San_release { pe = t.pe; owner = me; version = Some version });
    clear_claim t ~me
  end;
  released

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
  if !Runtime.tracing then Runtime.trace_access (Runtime.Lock t.pe);
  if
    locked observed
    && Atomic.compare_and_set t.stamp_cell observed (version lsl 1)
  then begin
    (* Report before displacing the claim, for the same reason as the
       CAS-based releases above. *)
    if !Runtime.sanitizer then
      Runtime.sanitizer_event
        (Runtime.San_steal { pe = t.pe; victim; version = Some version });
    Some (Atomic.exchange t.claim (-1))
  end
  else None

let pp ppf t =
  let s = Atomic.get t.stamp_cell in
  Format.fprintf ppf "v%d%s" (version_of s) (if locked s then "/locked" else "")
