(* Deterministic fault injection.

   A single seeded xorshift PRNG decides, at every instrumented point,
   whether to perturb the execution: scheduling points may delay or
   spuriously abort the attempt, versioned-lock acquisitions may be refused
   and read-set validations may be failed.  Under the deterministic
   scheduler a run is single-domain, so for a fixed (seed, schedule) the
   perturbations are reproducible; across real domains the draws interleave
   nondeterministically, which is what a chaos stress wants anyway.

   Injection is confined to transaction attempts: a per-process flag set
   by the attempt handler ([Attempt]) around each attempt keeps faults out
   of backoff waits (where an [Abort_tx] would escape the retry loop) and
   out of non-transactional code.  It is also suppressed while the serial
   fallback token is held, so an escalated transaction stays irrevocable
   and the no-starvation guarantee survives arbitrary fault rates. *)

type config = {
  seed : int;
  spurious_abort : float;   (* per scheduling point *)
  lock_fail : float;        (* per versioned-lock acquisition *)
  validation_fail : float;  (* per read-set validation *)
  delay : float;            (* per scheduling point *)
  max_delay_spins : int;
  fsync_fail : float;       (* per WAL fsync: report failure, skip the sync *)
  short_write : float;      (* per WAL flush: write a prefix, poison the log *)
}

let default =
  { seed = 1; spurious_abort = 0.0; lock_fail = 0.0; validation_fail = 0.0;
    delay = 0.0; max_delay_spins = 64; fsync_fail = 0.0; short_write = 0.0 }

let to_string c =
  Printf.sprintf
    "seed=%d,abort=%g,lock=%g,validate=%g,delay=%g,spins=%d,fsync=%g,shortw=%g"
    c.seed c.spurious_abort c.lock_fail c.validation_fail c.delay
    c.max_delay_spins c.fsync_fail c.short_write

let parse s =
  let rate k v =
    match float_of_string_opt v with
    | Some f when f >= 0.0 && f <= 1.0 -> f
    | _ -> invalid_arg (Printf.sprintf "Faults.parse: %s=%s (want 0..1)" k v)
  in
  let int_field k v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Faults.parse: %s=%s (want int)" k v)
  in
  List.fold_left
    (fun c field ->
      if String.trim field = "" then c
      else
        match String.index_opt field '=' with
        | None -> invalid_arg ("Faults.parse: expected key=value in " ^ field)
        | Some i ->
          let k = String.trim (String.sub field 0 i) in
          let v =
            String.trim (String.sub field (i + 1) (String.length field - i - 1))
          in
          (match k with
          | "seed" -> { c with seed = int_field k v }
          | "abort" -> { c with spurious_abort = rate k v }
          | "lock" -> { c with lock_fail = rate k v }
          | "validate" -> { c with validation_fail = rate k v }
          | "delay" -> { c with delay = rate k v }
          | "spins" -> { c with max_delay_spins = int_field k v }
          | "fsync" -> { c with fsync_fail = rate k v }
          | "shortw" -> { c with short_write = rate k v }
          | _ -> invalid_arg ("Faults.parse: unknown key " ^ k)))
    default
    (String.split_on_char ',' s)

type kind =
  | Spurious_abort
  | Lock_fail
  | Validation_fail
  | Delay
  | Crash_domain
  | User_raise
  | Fsync_fail
  | Short_write

let all_kinds =
  [ Spurious_abort; Lock_fail; Validation_fail; Delay; Crash_domain;
    User_raise; Fsync_fail; Short_write ]

let kind_name = function
  | Spurious_abort -> "spurious_abort"
  | Lock_fail -> "lock_fail"
  | Validation_fail -> "validation_fail"
  | Delay -> "delay"
  | Crash_domain -> "crash_domain"
  | User_raise -> "user_raise"
  | Fsync_fail -> "fsync_fail"
  | Short_write -> "short_write"

let kind_index = function
  | Spurious_abort -> 0
  | Lock_fail -> 1
  | Validation_fail -> 2
  | Delay -> 3
  | Crash_domain -> 4
  | User_raise -> 5
  | Fsync_fail -> 6
  | Short_write -> 7

let injected = Array.init 8 (fun _ -> Atomic.make 0)

let count k = Atomic.get injected.(kind_index k)
let counts () = List.map (fun k -> (k, count k)) all_kinds
let reset_counts () = Array.iter (fun c -> Atomic.set c 0) injected

let record k = ignore (Atomic.fetch_and_add injected.(kind_index k) 1)

(* Current configuration; [None] while disabled.  The PRNG state is global
   and CAS-advanced: single-domain runs draw a deterministic sequence,
   multi-domain runs interleave draws (each draw is still consumed exactly
   once). *)

let config : config option ref = ref None

let prng = Atomic.make 1

let mix seed =
  (* splitmix-style avalanche so that nearby seeds give unrelated streams *)
  let z = seed + 0x9E3779B9 in
  let z = (z lxor (z lsr 16)) * 0x85EBCA6B land max_int in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 land max_int in
  (z lxor (z lsr 16)) lor 1

let rec draw () =
  let x = Atomic.get prng in
  let y = x lxor (x lsl 13) in
  let y = y lxor (y lsr 7) in
  let y = (y lxor (y lsl 17)) land max_int in
  let y = if y = 0 then 1 else y in
  if Atomic.compare_and_set prng x y then y else draw ()

(* 30 random bits -> [0, 1).  Plenty of resolution for fault rates. *)
let uniform () = float_of_int (draw () land 0x3FFFFFFF) /. 1073741824.0

let hit rate = rate > 0.0 && uniform () < rate

(* Per-process "inside a transaction attempt" flag. *)
let in_attempt = Runtime.local (fun () -> ref false)

let enter_attempt () = Domain.DLS.get in_attempt := true
let leave_attempt () = Domain.DLS.get in_attempt := false

let eligible () =
  !(Domain.DLS.get in_attempt) && not (Runtime.Serial.active ())

let spin_delay c =
  let spins = 1 + (draw () mod max 1 c.max_delay_spins) in
  if not Runtime.plane.sim then
    for _ = 1 to spins do
      Domain.cpu_relax ()
    done

exception Injected_failure

(* Deterministic one-shot faults, armed per process: fire after exactly
   [points] further eligible scheduling points.  The chaos kill scenario
   uses them to land a crash at a chosen depth inside a transaction —
   i.e. inside a lock-holding window — independent of the PRNG stream.
   [disable] bumps [generation]; a one-shot armed under an older
   generation is dropped at its next point, whichever process holds it. *)
type armed = {
  mutable countdown : int;
  mutable armed_kind : [ `Crash | `Raise ] option;
  mutable armed_gen : int;
}

let generation = Atomic.make 0

let armed_state =
  Runtime.local (fun () -> { countdown = 0; armed_kind = None; armed_gen = 0 })

let fire_armed a k =
  a.armed_kind <- None;
  match k with
  | `Crash ->
    record Crash_domain;
    raise Control.Crashed
  | `Raise ->
    record User_raise;
    raise Injected_failure

let point () =
  begin
    let a = Domain.DLS.get armed_state in
    match a.armed_kind with
    | Some _ when a.armed_gen <> Atomic.get generation ->
      a.armed_kind <- None
    | Some k when eligible () ->
      a.countdown <- a.countdown - 1;
      if a.countdown <= 0 then fire_armed a k
    | _ -> ()
  end;
  match !config with
  | None -> ()
  | Some c ->
    if eligible () then begin
      if hit c.delay then begin
        record Delay;
        spin_delay c
      end;
      if hit c.spurious_abort then begin
        record Spurious_abort;
        Control.abort_tx Control.Injected
      end
    end

(* One draw against [rate c], counted as [kind] when it hits.  [gated]
   confines it to eligible points, and is checked before the draw so an
   ineligible point consumes none. *)
let inject ~gated kind rate =
  match !config with
  | Some c when ((not gated) || eligible ()) && hit (rate c) ->
    record kind;
    true
  | _ -> false

let inject_lock_fail () = inject ~gated:true Lock_fail (fun c -> c.lock_fail)

let inject_validation_fail () =
  inject ~gated:true Validation_fail (fun c -> c.validation_fail)

(* The WAL runs *after* an attempt commits (the durability hook fires in
   the attempt handler once [leave_attempt] has run), so these are deliberately
   not gated on [eligible]: a configured rate applies to every fsync /
   flush regardless of transactional context. *)
let inject_fsync_fail () =
  inject ~gated:false Fsync_fail (fun c -> c.fsync_fail)

let inject_short_write () =
  inject ~gated:false Short_write (fun c -> c.short_write)

(* Arming installs the hook even with no PRNG config: a one-shot fault
   must fire regardless of whether random fault rates are also active. *)
let arm kind ~points =
  if points <= 0 then invalid_arg "Faults.arm: points must be positive";
  let a = Domain.DLS.get armed_state in
  a.countdown <- points;
  a.armed_kind <- Some kind;
  a.armed_gen <- Atomic.get generation;
  Runtime.plane.faults <- Some point

let arm_crash_after ~points = arm `Crash ~points
let arm_raise_after ~points = arm `Raise ~points

let disarm () =
  let a = Domain.DLS.get armed_state in
  a.armed_kind <- None;
  a.countdown <- 0

let enable c =
  config := Some c;
  Atomic.set prng (mix c.seed);
  Runtime.plane.faults <- Some point

(* Cancels every armed one-shot: one left armed would otherwise fire at
   the first eligible point after a later [enable] or [arm].  The
   caller's is cleared here; every other process's goes stale with the
   generation. *)
let disable () =
  Runtime.plane.faults <- None;
  disarm ();
  Atomic.incr generation;
  config := None

let enabled () = Option.is_some !config
let current () = !config

let reseed seed =
  match !config with
  | None -> invalid_arg "Faults.reseed: fault injection is disabled"
  | Some c ->
    config := Some { c with seed };
    Atomic.set prng (mix seed)
