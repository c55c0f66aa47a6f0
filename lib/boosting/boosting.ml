(** Transactional boosting (Herlihy & Koskinen, PPoPP'08), composed through
    outheritance.

    Section VIII of the paper observes that boosting fits the protection
    element model — one protection element per abstract lock — and that
    "passing abstract locks from the child to the parent transaction would
    make transactional boosting satisfy outheritance and therefore provide
    composition".  This module is that sentence, executable:

    - a boosted transaction pessimistically acquires {e abstract locks}
      (one per semantic entity, e.g. per key of a set) before invoking an
      operation of an underlying {e linearizable} object, and records an
      {e inverse} operation in an undo log;
    - on abort the undo log runs backwards and the locks are released;
    - nested [atomic] blocks share the root's lock table and undo log, so
      a child's abstract locks are held until the {e root} commits —
      outheritance, and with it composition, by construction.

    Deadlocks (two transactions acquiring locks in opposite orders) are
    broken by bounded lock acquisition: a transaction that cannot get a
    lock within its patience aborts, undoes, backs off and retries. *)

open Stm_core

exception Too_many_retries = Control.Starvation

(** An abstract lock is a {!Vlock.t}, the same protection element a tvar
    carries: its id comes from the tvar id supply and doubles as the
    protection-element identifier when runs are recorded for the theory
    checkers.  Boosting never publishes a version through it — every
    release restores the pre-lock stamp — so the version moves only when
    recovery steals the lock. *)
let abstract_lock () = Vlock.create ~pe:(Runtime.fresh_tvar_id ()) ()

type tx = {
  root_id : int;
  mutable locks : (Vlock.t * int) list;  (* acquired, with pre-lock stamps *)
  mutable undo : (unit -> unit) list;    (* inverses, newest first *)
  rec_state : Txrec.t option;            (* event recording, when enabled *)
}

let stats = Stats.create ()

(** Acquire an abstract lock for the running transaction (idempotent).
    Aborts the transaction if the lock stays unavailable past the
    transaction's patience. *)
let acquire tx lock =
  (* Boosting applies operations eagerly, so a doomed victim (its stripe
     stolen by recovery) is not stopped by any install-time check — it
     would keep mutating shared structures it no longer isolates.  Every
     operation acquires its stripe first, so checking here (before even
     the reentrant fast path: a stolen stripe makes that "stable local
     fact" false) bounds the damage to at most one operation past the
     steal; the abort rolls the undo log back and releases the remaining
     locks. *)
  Recovery.check_poisoned ();
  (* Reentrant fast path: the claim cell names [root_id] only while this
     transaction holds the lock (it is claimed by our own acquisition and
     cleared by our own release or a steal), so the read is a stable local
     fact — and the invariant "we hold it iff it is in [tx.locks]" makes a
     membership scan unnecessary. *)
  if Vlock.holder lock = tx.root_id then ()
  else begin
  let patience = 1_000 in
  let rec go n =
    Runtime.schedule_point_on (Runtime.Lock (Vlock.pe lock));
    (* Serial-irrevocable gate.  Boosting applies operations eagerly, so
       the gate sits on lock acquisition (the engine's only wait point):
       a transaction refused here rolls back via its undo log and releases
       its abstract locks, letting the token holder proceed.  Transactions
       that already hold every lock they need run to completion — that is
       harmless, since boosting commits touch no shared STM metadata. *)
    if not (Runtime.Serial.commit_allowed ()) then
      Control.abort_tx Control.Killed;
    (* An injected lock failure (drawn inside [try_lock_save]) behaves
       exactly like contention: retry, then abort at patience. *)
    let saved =
      (Vlock.try_lock_save lock
         ~owner:tx.root_id
       [@txlint.allow "lock-release"
           "abstract locks accumulate in tx.locks; commit/abort \
            release them all in [finish], and a simulated crash must \
            leave them held for lease reclamation"])
    in
    if saved >= 0 then begin
      tx.locks <- (lock, saved) :: tx.locks;
      Txrec.acquire tx.rec_state ~pe:(Vlock.pe lock)
    end
    else begin
      (* Orphan reclamation: every 64 failed rounds (and once more before
         giving up) check whether the holder is dead or stale, and steal
         the lock on its behalf if so. *)
      let stolen =
        Option.is_some Runtime.plane.recovery
        && (n land 63 = 63 || n >= patience)
        && Recovery.try_steal_vlock lock
      in
      if stolen then go n
      else if n >= patience then Control.abort_tx Control.Lock_contention
      else begin
        Domain.cpu_relax ();
        go (n + 1)
      end
    end
  in
  go 0
  end

(** Record the inverse of an operation about to be applied. *)
let log_undo tx inverse = tx.undo <- inverse :: tx.undo

let release_all tx =
  (* CAS-based: a lock recovery stole is the thief's now, and stays. *)
  List.iter
    (fun (l, saved) -> ignore (Vlock.unlock_restore_from l ~saved))
    tx.locks;
  tx.locks <- []

let rollback tx =
  List.iter (fun inverse -> inverse ()) tx.undo;
  tx.undo <- []

module A = Attempt.Make (struct
  type ctx = tx
  type scratch = unit

  let stats = stats
  let create_scratch () = ()
  let clear_scratch () = ()

  let start () _ ~owner ~rec_state =
    { root_id = owner; locks = []; undo = []; rec_state }

  (* Changes are already applied to the base objects: drop the undo log
     and release the locks.  The attempt bracket's entry poison check
     stops a victim whose stripe was stolen from getting here: it aborts,
     rolling its undo log back, instead of reporting success over
     structures another transaction now owns. *)
  let commit tx =
    tx.undo <- [];
    release_all tx

  let abort tx =
    rollback tx;
    release_all tx

  (* No rollback and no release: the orphaned abstract locks are
     recovery's to reclaim.  The crashed transaction's undo log dies with
     it: boosting applies operations eagerly, so its effects up to the
     crash point remain applied (DESIGN.md 5h documents this
     limitation). *)
  let forget tx =
    tx.locks <- [];
    tx.undo <- []

  let rec_state tx = tx.rec_state
  let tx_id tx = tx.root_id

  (* Flat nesting with outheritance: everything the child acquires or logs
     accumulates in the root's lock table and undo log.  The child is a
     transaction of its own in the recorded history only. *)
  let enter tx _ ~tx:_ = tx
  let validate_child _ = ()
  let merge ~parent:_ ~parent_tx:_ _ = ()
end)

let in_transaction = A.in_transaction

(** Run a boosted transaction.  Nested calls share the root transaction's
    lock table and undo log: the child's abstract locks are outherited and
    released only at the root commit. *)
let atomic f = A.atomic Stm_intf.Regular f

(* ------------------------------------------------------------------ *)
(* A boosted set: striped abstract locks over a sequential hash set.    *)

module type BOOSTABLE_SET = sig
  type elt
  type t

  val create : unit -> t
  val contains : t -> elt -> bool
  val add : t -> elt -> bool
  val remove : t -> elt -> bool
end

(** Boost a sequential set into a composable concurrent one.

    Each key maps to one abstract lock (striped); [add]/[remove]/[contains]
    acquire the key's lock, apply the sequential operation under it, and
    log the inverse.  Two operations conflict exactly when their keys
    collide on a stripe — the semantic conflict relation of boosting,
    coarser-grained here than true per-key locks but with bounded memory. *)
module Boost (Base : BOOSTABLE_SET) (K : sig
  val hash : Base.elt -> int
end) =
struct
  type elt = Base.elt

  type t = {
    base : Base.t;
    stripes : Vlock.t array;
    base_mutex : Mutex.t;
        (* The sequential structure itself is not thread-safe; distinct
           keys on distinct stripes may still touch adjacent nodes, so the
           actual base operation runs under a short critical section.
           Abstract locks provide the *transactional* isolation (held to
           the root commit); the mutex only protects physical integrity. *)
  }

  let create ?(stripes = 64) () =
    { base = Base.create ();
      stripes = Array.init stripes (fun _ -> abstract_lock ());
      base_mutex = Mutex.create () }

  let lock_for t k = t.stripes.(K.hash k mod Array.length t.stripes)

  let critical t f =
    Mutex.lock t.base_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.base_mutex) f

  let contains t k =
    atomic (fun tx ->
        acquire tx (lock_for t k);
        critical t (fun () -> Base.contains t.base k))

  let add t k =
    atomic (fun tx ->
        acquire tx (lock_for t k);
        let changed = critical t (fun () -> Base.add t.base k) in
        if changed then
          log_undo tx (fun () ->
              ignore (critical t (fun () -> Base.remove t.base k)));
        changed)

  let remove t k =
    atomic (fun tx ->
        acquire tx (lock_for t k);
        let changed = critical t (fun () -> Base.remove t.base k) in
        if changed then
          log_undo tx (fun () ->
              ignore (critical t (fun () -> Base.add t.base k)));
        changed)

  (* Compositions — identical in shape to the e.e.c ones: boosting with
     outherited locks composes the same way elastic transactions do. *)

  let add_all t ks =
    atomic (fun _ -> List.fold_left (fun c k -> add t k || c) false ks)

  let remove_all t ks =
    atomic (fun _ -> List.fold_left (fun c k -> remove t k || c) false ks)

  let insert_if_absent t ~ins ~guard =
    atomic (fun _ -> if contains t guard then false else add t ins)

  let move ~src ~dst k =
    atomic (fun _ ->
        if remove src k then begin
          ignore (add dst k);
          true
        end
        else false)
end
