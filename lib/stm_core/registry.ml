(* In-flight top-level transaction registry (DESIGN.md 5h).

   Every domain that runs transactions while recovery is enabled claims one
   cache-line-padded slot and publishes, per top-level attempt, the root
   transaction id it is about to acquire locks under, together with a
   monotonic heartbeat refreshed at every scheduling point.  A contender
   that finds a lock held by an owner whose slot is dead (the domain
   exited or crashed) or stale (no heartbeat within the lease) may reclaim
   the lock through {!Recovery}.

   The ordering contract that makes reclamation sound: a transaction
   publishes its owner id {e before} acquiring any lock and clears it only
   {e after} releasing them all.  Hence "lock held by an owner with no
   live slot" can only mean the owner finished abnormally (or the table
   saturated, which the sticky [saturated] flag records — absence then
   stops implying death and reclamation degrades to the explicit
   dead/stale slots).

   Dooming: bumping a slot's [generation] past the value published by its
   current occupant marks the occupant poisoned.  A doomed transaction
   that resurrects fails {!poisoned} before installing and aborts instead
   of publishing a half-stolen write set. *)

type slot = {
  domain : int Atomic.t;      (* claiming domain id, -1 = free *)
  owner : int Atomic.t;       (* published root tx id, -1 = idle *)
  dead : bool Atomic.t;       (* domain exited or simulated crash *)
  generation : int Atomic.t;  (* bumped by [doom] *)
  published : int Atomic.t;   (* [generation] observed at last publish *)
  heartbeat : int Atomic.t;   (* Mclock nanoseconds of last refresh *)
}

let capacity = 256

let slots =
  Array.init capacity (fun _ ->
      Padding.copy_as_padded
        { domain = Padding.atomic (-1);
          owner = Padding.atomic (-1);
          dead = Atomic.make false;
          generation = Atomic.make 0;
          published = Atomic.make 0;
          heartbeat = Atomic.make 0 })

(* Sticky: set when a claim ever failed.  While set, the absence of a slot
   stops being evidence of death (a live unregistered owner could exist),
   so [owner_status]/[domain_status] report [Live] for unknown ids. *)
let saturated = Atomic.make false

let now_ns () = Int64.to_int (Mclock.now_ns ())

(* Per-domain claimed slot.  [None] until the first publish; the claim is
   released (and the slot marked dead first, so in-flight orphans stay
   reclaimable) when the domain exits.  Deliberately a DLS key rather than
   a [Runtime.local]: the registry models the death of a domain, and a
   slot per simulated process would never be released, so the fixed
   table would fill. *)
let my_slot : slot option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let release_slot s =
  Atomic.set s.dead true;
  (* Publish-order: dead must be visible before the slot is freed, and it
     STAYS set on the freed slot — only the next occupant ([claim], or
     [publish] refreshing a kept slot) resets it.  Clearing it here would
     let a contender that matched this slot just before the fields below
     were cleared read [dead = false] plus the old heartbeat and classify
     an exited domain as live, delaying reclamation.  Freeing keeps the
     table bounded across unboundedly many domains. *)
  Atomic.set s.owner (-1);
  Atomic.set s.domain (-1)

let claim () =
  let self = Runtime.current_proc () in
  let rec scan i =
    if i >= capacity then begin
      Atomic.set saturated true;
      None
    end
    else begin
      let s = slots.(i) in
      let d = Atomic.get s.domain in
      if (d = -1 || Atomic.get s.dead)
         && Atomic.compare_and_set s.domain d self
      then begin
        Atomic.set s.owner (-1);
        Atomic.set s.dead false;
        Atomic.set s.heartbeat (now_ns ());
        Some s
      end
      else scan (i + 1)
    end
  in
  match scan 0 with
  | None -> None
  | Some s ->
    Domain.DLS.get my_slot := Some s;
    Domain.at_exit (fun () ->
        match !(Domain.DLS.get my_slot) with
        | Some s ->
          Domain.DLS.get my_slot := None;
          release_slot s
        | None -> ());
    Some s

let current_slot () =
  match !(Domain.DLS.get my_slot) with
  | Some _ as s -> s
  | None -> claim ()

let publish ~owner =
  match current_slot () with
  | None -> ()
  | Some s ->
    Atomic.set s.dead false;
    Atomic.set s.published (Atomic.get s.generation);
    Atomic.set s.heartbeat (now_ns ());
    (* Owner last: once it is visible, every field a contender consults is
       already current. *)
    Atomic.set s.owner owner

let clear () =
  match !(Domain.DLS.get my_slot) with
  | None -> ()
  | Some s -> Atomic.set s.owner (-1)

let mark_crashed () =
  match !(Domain.DLS.get my_slot) with
  | None -> ()
  | Some s -> Atomic.set s.dead true

let heartbeat () =
  match !(Domain.DLS.get my_slot) with
  | None -> ()
  | Some s -> Atomic.set s.heartbeat (now_ns ())

let poisoned () =
  match !(Domain.DLS.get my_slot) with
  | None -> false
  | Some s -> Atomic.get s.generation > Atomic.get s.published

type status = Live | Stale | Dead

let status_name = function Live -> "live" | Stale -> "stale" | Dead -> "dead"

let slot_status ~lease_ns s =
  if Atomic.get s.dead then Dead
  else if now_ns () - Atomic.get s.heartbeat > lease_ns then Stale
  else Live

let find_by f =
  let rec go i =
    if i >= capacity then None
    else begin
      let s = slots.(i) in
      if Atomic.get s.domain >= 0 && f s then Some s else go (i + 1)
    end
  in
  go 0

let owner_status ~lease_ns ~owner =
  match find_by (fun s -> Atomic.get s.owner = owner) with
  | Some s -> slot_status ~lease_ns s
  | None -> if Atomic.get saturated then Live else Dead

let domain_status ~lease_ns ~domain =
  match find_by (fun s -> Atomic.get s.domain = domain) with
  | Some s -> slot_status ~lease_ns s
  | None -> if Atomic.get saturated then Live else Dead

let doom ~owner =
  match find_by (fun s -> Atomic.get s.owner = owner) with
  | None -> false
  | Some s ->
    (* Re-check under no lock: the occupant may have moved on between the
       find and the bump, in which case the bump poisons whoever published
       last — a spurious (safe) abort, re-published clean on retry. *)
    Atomic.incr s.generation;
    Atomic.get s.owner = owner

(* Doom by domain id: used by the serial-token reclaim, whose holder is a
   domain (the token outlives any one transaction id).  Same spurious-
   abort caveat as [doom]. *)
let doom_domain ~domain =
  match find_by (fun s -> Atomic.get s.domain = domain) with
  | None -> false
  | Some s ->
    Atomic.incr s.generation;
    Atomic.get s.domain = domain

let owner_doomed ~owner =
  match find_by (fun s -> Atomic.get s.owner = owner) with
  | None -> false
  | Some s -> Atomic.get s.generation > Atomic.get s.published

let domain_doomed ~domain =
  match find_by (fun s -> Atomic.get s.domain = domain) with
  | None -> false
  | Some s -> Atomic.get s.generation > Atomic.get s.published

let live_count () =
  let n = ref 0 in
  Array.iter
    (fun s ->
      if Atomic.get s.domain >= 0 && Atomic.get s.owner >= 0
         && not (Atomic.get s.dead)
      then incr n)
    slots;
  !n
