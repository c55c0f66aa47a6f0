(* Access annotations (documented in runtime.mli). *)
type access =
  | Pure
  | Read of int
  | Write of int
  | Lock of int

let clock_pe = -1

(* Transactional sanitizer events (documented in runtime.mli). *)
type san_event =
  | San_acquire of { pe : int; owner : int; version : int }
  | San_release of { pe : int; owner : int; version : int option }
  | San_unsafe_write of { pe : int; locked_owner : int option }
  | San_peek of { pe : int }
  | San_steal of { pe : int; victim : int; version : int option }

(* The instrumentation plane: one field per cross-cutting concern, and a
   concern is on iff its field holds its hook.  The record is allocated
   once, so a guard is one load of a field and one branch, and a site
   whose concern is off builds no event. *)
type recovery_hooks = {
  heartbeat : unit -> unit;
  serial_reclaim : unit -> unit;
}

type plane = {
  mutable sim : bool;
  mutable trace : (access -> unit) option;
  mutable faults : (unit -> unit) option;
  mutable recovery : recovery_hooks option;
  mutable sanitizer : (san_event -> unit) option;
  mutable durable : bool;
  mutable detailed : bool;
}

let plane =
  { sim = false; trace = None; faults = None; recovery = None;
    sanitizer = None; durable = false; detailed = false }

let save_plane () = { plane with sim = plane.sim }

let restore_plane p =
  plane.sim <- p.sim;
  plane.trace <- p.trace;
  plane.faults <- p.faults;
  plane.recovery <- p.recovery;
  plane.sanitizer <- p.sanitizer;
  plane.durable <- p.durable;
  plane.detailed <- p.detailed

(* Per-process state: each local is a DLS key and two typed closures,
   [save] (the current value's reinstaller) and [fresh] (a new value's
   installer for process [p]).  Locals register at module initialisation
   and the closures run only under the single-domain deterministic
   scheduler, so a plain list is safe. *)
type locals = (unit -> unit) list

type entry = { save : unit -> unit -> unit; fresh : int -> unit -> unit }

let entries : entry list ref = ref []

let register key fresh =
  let set v () = Domain.DLS.set key v in
  entries :=
    { save = (fun () -> set (Domain.DLS.get key));
      fresh = (fun p -> set (fresh p)) }
    :: !entries;
  key

let local init = register (Domain.DLS.new_key init) (fun _ -> init ())

let proc_id =
  register (Domain.DLS.new_key (fun () -> (Domain.self () :> int))) Fun.id

let save_locals () = List.map (fun e -> e.save ()) !entries
let fresh_locals ~proc = List.map (fun e -> e.fresh proc) !entries
let restore_locals l = List.iter (fun install -> install ()) l

let current_proc () = Domain.DLS.get proc_id

let yield_hook : (access -> unit) ref = ref (fun _ -> ())

let[@inline] heartbeat_and_faults () =
  (match plane.recovery with Some r -> r.heartbeat () | None -> ());
  match plane.faults with Some f -> f () | None -> ()

let schedule_point () =
  heartbeat_and_faults ();
  !yield_hook Pure

let schedule_point_on a =
  heartbeat_and_faults ();
  !yield_hook a

(* Global-clock policy (see [Clock]).  Lives here, below the clock module
   itself, so that engines and the sanitizer can branch on the policy
   without a dependency cycle.  [GV1]: fetch-and-add per writer commit.
   [GV4]: CAS once, adopt the winner's value on failure.  [GV5]: commit at
   [read + 2] without writing the clock; bump it on aborts instead. *)
type clock_policy = GV1 | GV4 | GV5

let clock_policy = ref GV1

let retry_cap = ref 64

let starvation_mode : [ `Raise | `Fallback ] ref = ref `Fallback

let tx_timeout_ns : int option ref = ref None

(* Serial-irrevocable mode: a single global token whose holder is the only
   logical process allowed to commit.  The retry loop enters it when a
   transaction exhausts its retry cap; every engine's commit path checks
   [commit_allowed] and aborts (releasing its locks) when another process
   holds the token, and new attempts park in [await_clear].  With no
   concurrent commits the clock cannot advance and locks drain, so the
   holder's next attempt validates trivially — it commits after at most the
   in-flight stragglers finish. *)
module Serial = struct
  let holder = Padding.atomic (-1)

  let active () = Atomic.get holder >= 0
  let mine () = Atomic.get holder = current_proc ()

  let commit_allowed () =
    let h = Atomic.get holder in
    h < 0 || h = current_proc ()

  let relax () = if plane.sim then schedule_point () else Domain.cpu_relax ()

  let reclaim () =
    match plane.recovery with Some r -> r.serial_reclaim () | None -> ()

  (* Poll [ready] until it holds ([true]) or [giveup] does ([false]),
     reclaiming an orphaned token between polls. *)
  let rec wait_until ready giveup =
    ready ()
    || (not (giveup ()))
       && begin
            reclaim ();
            relax ();
            wait_until ready giveup
          end

  let enter ?(giveup = fun () -> false) () =
    wait_until
      (fun () -> Atomic.compare_and_set holder (-1) (current_proc ()))
      giveup

  let exit () =
    ignore (Atomic.compare_and_set holder (current_proc ()) (-1))

  let holder_id () = Atomic.get holder

  (* Recovery-only: release a token held by [expected] on that process's
     behalf.  The CAS makes the reclaim safe against the presumed-dead
     holder resurrecting and calling [exit] itself (both CAS from the same
     observed value; exactly one wins). *)
  let force_clear ~expected =
    expected >= 0 && Atomic.compare_and_set holder expected (-1)

  let await_clear ?(giveup = fun () -> false) () =
    wait_until commit_allowed giveup
end

(* Identifier supplies.  Outside the deterministic scheduler these are
   global atomic counters.  Under simulation, ids come from per-process
   counters salted with the process id instead: two independent steps
   that each allocate (a tvar created inside a transaction, a fresh
   transaction id) must produce the same ids in either execution order,
   otherwise id-derived behaviour (write-set lock ordering, owner
   comparisons) would distinguish equivalent interleavings and break
   partial-order reduction. *)
let tx_counter = Atomic.make 0
let tvar_counter = Atomic.make 0

let sim_id_base = 1 lsl 40
let sim_id_stride = 1 lsl 28

let sim_tx_count = local (fun () -> ref 0)
let sim_tvar_count = local (fun () -> ref 0)

let salted_id key =
  let r = Domain.DLS.get key in
  incr r;
  sim_id_base + ((current_proc () + 1) * sim_id_stride) + !r

let fresh_tx_id () =
  if plane.sim then salted_id sim_tx_count
  else Atomic.fetch_and_add tx_counter 1

let fresh_tvar_id () =
  if plane.sim then salted_id sim_tvar_count
  else Atomic.fetch_and_add tvar_counter 1
