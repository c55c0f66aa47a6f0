(* Access annotations.  [Pure] claims the upcoming step touches no shared
   state; the other constructors name the protection element about to be
   accessed.  The deterministic scheduler uses them (together with the
   dynamic trace hook below) to compute which steps commute. *)
type access =
  | Pure
  | Read of int
  | Write of int
  | Lock of int

let clock_pe = -1

let proc_hook = ref (fun () -> (Domain.self () :> int))
let current_proc () = !proc_hook ()

(* Fault injection.  [Faults] installs its injector here; the flag keeps the
   hot path at one load-and-branch while no faults are configured. *)
let fault_injection = ref false
let fault_hook : (unit -> unit) ref = ref (fun () -> ())

let yield_hook : (access -> unit) ref = ref (fun _ -> ())

(* Crash-tolerant lock recovery.  [Recovery] installs its hooks here; the
   flag keeps the hot path at one load-and-branch while recovery is off.
   The heartbeat hook refreshes the current domain's registry slot at
   every scheduling point; the serial-reclaim hook runs inside the
   [Serial] spin loops so a token orphaned by a dead holder is eventually
   CASed free. *)
let recovery = ref false
let heartbeat_hook : (unit -> unit) ref = ref (fun () -> ())
let serial_reclaim_hook : (unit -> unit) ref = ref (fun () -> ())

(* Durable commits.  [Persist] raises the flag while a write-ahead log is
   open; [Retry_loop] consults it after every top-level outcome (fire the
   staged record on commit, drop it on abort), so the hot path pays one
   load-and-branch while durability is off.  The staging machinery itself
   lives in [Durable] to keep this module dependency-free. *)
let durability = ref false

let schedule_point () =
  if !recovery then !heartbeat_hook ();
  if !fault_injection then !fault_hook ();
  !yield_hook Pure

let schedule_point_on a =
  if !recovery then !heartbeat_hook ();
  if !fault_injection then !fault_hook ();
  !yield_hook a

let simulated = ref false

(* Dynamic access tracing.  While the deterministic scheduler runs, every
   shared access performed by the STM machinery (versioned-lock stamps,
   tvar stores, global-clock reads/ticks) reports itself
   here, giving each scheduling step its exact footprint.  Off by default;
   call sites guard on [tracing] so the hot path pays one load and branch,
   and no allocation, when no scheduler is attached. *)
let tracing = ref false
let trace_hook : (access -> unit) ref = ref (fun _ -> ())
let trace_access a = !trace_hook a

(* Transactional sanitizer.  [Sanitizer] installs its event handler here;
   the flag keeps every instrumented site (lock transitions, unsafe stores,
   peeks) at one load-and-branch while the sanitizer is off.  Events name
   the protection element; lock events also carry the owner and the version
   observed at the transition so the sanitizer can check balance and
   monotonicity without holding references into the lock itself. *)
type san_event =
  | San_acquire of { pe : int; owner : int; version : int }
      (** a versioned lock was taken; [version] is the committed
          version at acquisition time *)
  | San_release of { pe : int; owner : int; version : int option }
      (** a lock was dropped; [Some v] = released to a new version
          (commit), [None] = restored (version unchanged) *)
  | San_unsafe_write of { pe : int; locked_owner : int option }
      (** a non-transactional store; [locked_owner] is the holder of the
          element's lock at the store, if it was held *)
  | San_peek of { pe : int }  (** a non-transactional read *)
  | San_steal of { pe : int; victim : int; version : int option }
      (** recovery reclaimed a lock held by [victim]; [Some v] = a
          versioned lock stolen to poisoned version [v], [None] = the
          serial token *)

let sanitizer = ref false
let sanitizer_hook : (san_event -> unit) ref = ref (fun _ -> ())
let sanitizer_event e = !sanitizer_hook e

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

  let relax () = if !simulated then schedule_point () else Domain.cpu_relax ()

  let rec enter ?(giveup = fun () -> false) () =
    if Atomic.compare_and_set holder (-1) (current_proc ()) then true
    else if giveup () then false
    else begin
      if !recovery then !serial_reclaim_hook ();
      relax ();
      enter ~giveup ()
    end

  let exit () =
    ignore (Atomic.compare_and_set holder (current_proc ()) (-1))

  let holder_id () = Atomic.get holder

  (* Recovery-only: release a token held by [expected] on that process's
     behalf.  The CAS makes the reclaim safe against the presumed-dead
     holder resurrecting and calling [exit] itself (both CAS from the same
     observed value; exactly one wins). *)
  let force_clear ~expected =
    expected >= 0 && Atomic.compare_and_set holder expected (-1)

  let rec await_clear ?(giveup = fun () -> false) () =
    let h = Atomic.get holder in
    if h < 0 || h = current_proc () then true
    else if giveup () then false
    else begin
      if !recovery then !serial_reclaim_hook ();
      relax ();
      await_clear ~giveup ()
    end
end

(* Identifier supplies.  Outside the deterministic scheduler these are
   global atomic counters.  Under simulation, ids are drawn from per-process
   pools instead: two independent steps that each allocate (a tvar created
   inside a transaction, a fresh transaction id) must produce the same ids
   in either execution order, otherwise id-derived behaviour (write-set lock
   ordering, owner comparisons) would distinguish equivalent interleavings
   and break partial-order reduction. *)
let tx_counter = Atomic.make 0
let tvar_counter = Atomic.make 0

let sim_id_base = 1 lsl 40
let sim_id_stride = 1 lsl 28

let sim_tx_pools : (int, int ref) Hashtbl.t = Hashtbl.create 8
let sim_tvar_pools : (int, int ref) Hashtbl.t = Hashtbl.create 8

let reset_sim_ids () =
  Hashtbl.reset sim_tx_pools;
  Hashtbl.reset sim_tvar_pools

let salted_id pools =
  let p = current_proc () in
  let r =
    match Hashtbl.find_opt pools p with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.add pools p r;
      r
  in
  incr r;
  sim_id_base + ((p + 1) * sim_id_stride) + !r

let fresh_tx_id () =
  if !simulated then salted_id sim_tx_pools
  else Atomic.fetch_and_add tx_counter 1

let fresh_tvar_id () =
  if !simulated then salted_id sim_tvar_pools
  else Atomic.fetch_and_add tvar_counter 1

(* TLS registry.  Registration happens at module initialisation time (each
   STM registers once); save/restore run only under the single-domain
   deterministic scheduler, so a plain list is safe. *)
let tls_entries : ((unit -> Obj.t) * (Obj.t -> unit)) list ref = ref []

let register_tls ~save ~restore = tls_entries := (save, restore) :: !tls_entries

let save_all_tls () =
  Array.of_list (List.map (fun (save, _) -> save ()) !tls_entries)

let restore_all_tls a =
  List.iteri (fun i (_, restore) -> restore a.(i)) !tls_entries
