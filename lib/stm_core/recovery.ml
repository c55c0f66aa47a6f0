(* Lease-based orphan-lock reclamation (DESIGN.md 5h).

   A contender blocked on a lock consults the owner's {!Registry} slot: if
   the owner is dead (domain exited / crashed) or its heartbeat is stale
   past the lease, the contender steals the lock.  The protocol, in order:

   0. read the victim's identity from the lock's claim cell
      ({!Vlock.holder}), which every acquisition populates {e before}
      its stamp CAS, so it never names a stale previous owner against a
      freshly locked stamp;
   1. doom the victim's slot (generation bump) — a resurrected victim now
      fails its poison check before installing anything;
   2. mint a poisoned version strictly above the version observed under
      the lock, via [Clock.tick ~floor] so the global clock also moves
      past it (readers of the poisoned stamp abort as "too new" and
      re-read, never validating against torn state);
   3. CAS the stamp from the exact observed locked value to the poisoned
      version — if the victim released (or another thief won) meanwhile,
      the CAS fails and nothing happened — and doom the displaced claim
      as well when it differs from the victim (a release/re-acquire that
      cycled back to the same stamp: the new holder lost its lock to the
      steal and must abort poisoned rather than half-commit).

   Doom-before-steal also serves the sanitizer: by the time a San_steal
   event is checked, the victim's slot is either dead/stale or visibly
   doomed, so a live-owner steal is distinguishable as a violation.

   Soundness assumption (documented in DESIGN.md 5h): the lease must be
   much longer than any honest lock-hold window, including the commit
   install loop.  A spurious steal from a merely-slow owner is still
   poisoned-safe for the victim's own writes (CAS-based releases fail and
   the victim aborts poisoned) but a steal between validation and install
   can let a third transaction read a half-installed write set — leases
   are a liveness/consistency trade-off, not a free lunch. *)

let default_lease_ns = 50_000_000 (* 50 ms *)

let lease = Atomic.make default_lease_ns

let lease_ns () = Atomic.get lease

let enabled () = Option.is_some Runtime.plane.recovery

let serial_reclaim () =
  let h = Runtime.Serial.holder_id () in
  if h >= 0 && h <> Runtime.current_proc () then begin
    match Registry.domain_status ~lease_ns:(lease_ns ()) ~domain:h with
    | Registry.Live -> ()
    | (Registry.Stale | Registry.Dead) as st ->
      if st = Registry.Stale then Stats.record_lease_expiry ();
      (* Doom before force-clear, mirroring the vlock steal path: while
         the token sat free a concurrent commit may already have happened,
         so a stale-but-alive holder that resurrects must not keep
         believing it runs in exclusive serial mode — its next
         [check_poisoned] (commit entry) aborts it [Poisoned] instead. *)
      ignore (Registry.doom_domain ~domain:h);
      if Runtime.Serial.force_clear ~expected:h then begin
        Stats.record_orphan_steal ();
        match Runtime.plane.sanitizer with
        | Some san ->
          san
            (Runtime.San_steal
               { pe = Runtime.clock_pe; victim = h; version = None })
        | None -> ()
      end
  end

let enable ?lease_ns:(l = default_lease_ns) () =
  Atomic.set lease l;
  Runtime.plane.recovery <-
    Some { Runtime.heartbeat = Registry.heartbeat; serial_reclaim }

let disable () = Runtime.plane.recovery <- None

(* Steal one versioned lock observed held by a dead/stale owner.  [true]
   means the lock is now free (at a poisoned version) and the contender
   may retry its acquisition/read.  Never called under the deterministic
   scheduler: simulated runs have no real time, hence no leases. *)
let try_steal_vlock lock =
  Option.is_none Runtime.plane.sim
  && begin
       let s = Vlock.stamp lock in
       Vlock.locked s
       && begin
            (* Identity comes from the claim cell, which is CASed in
               before the stamp CAS and cleared only after the
               release/steal transition ([Vlock.try_lock]'s protocol), so
               [holder >= 0] against a locked stamp is always the actual
               holder, never a previous (possibly dead) one whose doom
               would let the steal take the lock from a live, undoomed
               holder.  -1 means a release or steal handover is in
               flight: refuse and let the contender re-probe. *)
            let victim = Vlock.holder lock in
            victim >= 0
            && begin
                 match
                   Registry.owner_status ~lease_ns:(lease_ns ()) ~owner:victim
                 with
                 | Registry.Live -> false
                 | (Registry.Stale | Registry.Dead) as st ->
                   if st = Registry.Stale then Stats.record_lease_expiry ();
                   (* Doom first: the victim must be poisoned before the
                      lock can change hands. *)
                   ignore (Registry.doom ~owner:victim);
                   let pv =
                     Clock.tick ~floor:(fun () -> Vlock.version_of s) ()
                   in
                   (match Vlock.steal lock ~observed:s ~victim ~version:pv with
                   | None -> false
                   | Some displaced ->
                     (* If the displaced claim is not the victim we
                        validated, the lock cycled back to the same stamp
                        under a new holder while we probed.  That holder
                        lost its lock to this steal, so doom it too — a
                        spurious-but-safe poisoned abort for a transaction
                        that can no longer commit intact anyway. *)
                     if displaced >= 0 && displaced <> victim then
                       ignore (Registry.doom ~owner:displaced);
                     Stats.record_orphan_steal ();
                     true)
               end
          end
     end

(* Called before every engine's commit (by the attempt bracket) and by the
   tvar engine immediately before installing a write set: a doomed
   transaction aborts here instead of publishing values over locks it no
   longer holds. *)
let check_poisoned () =
  if Option.is_some Runtime.plane.recovery && Registry.poisoned () then begin
    Stats.record_poisoned_commit ();
    Control.abort_tx Control.Poisoned
  end
