type reason =
  | Read_locked
  | Read_inconsistent
  | Read_too_new
  | Window_invalid
  | Validation_failed
  | Lock_contention
  | Killed
  | Explicit
  | Injected
  | Poisoned

exception Abort_tx of reason
exception Starvation of string
exception Timeout of string

(* Simulated abrupt domain death ({!Faults} crash injection): engines must
   NOT release locks or clear their registry slot on this exception — the
   whole point is to leave orphaned state behind for {!Recovery} to
   reclaim.  Real code never raises it. *)
exception Crashed

(* The sanitizer's abort generation: a per-domain count of [abort_tx]
   raises, bumped only while the sanitizer is on (the guard keeps the
   disabled cost at one load).  Registered with the TLS registry so that
   under the deterministic scheduler it context-switches with the logical
   process. *)
let abort_gen : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let () =
  Runtime.register_tls
    ~save:(fun () -> Obj.repr !(Domain.DLS.get abort_gen))
    ~restore:(fun o -> Domain.DLS.get abort_gen := (Obj.obj o : int))

let abort_generation () = !(Domain.DLS.get abort_gen)
let set_abort_generation n = Domain.DLS.get abort_gen := n

let abort_tx r =
  if Option.is_some Runtime.plane.sanitizer then
    incr (Domain.DLS.get abort_gen);
  raise (Abort_tx r)

let reason_to_string = function
  | Read_locked -> "read-locked"
  | Read_inconsistent -> "read-inconsistent"
  | Read_too_new -> "read-too-new"
  | Window_invalid -> "window-invalid"
  | Validation_failed -> "validation-failed"
  | Lock_contention -> "lock-contention"
  | Killed -> "killed"
  | Explicit -> "explicit"
  | Injected -> "injected"
  | Poisoned -> "poisoned"

let reason_index = function
  | Read_locked -> 0
  | Read_inconsistent -> 1
  | Read_too_new -> 2
  | Window_invalid -> 3
  | Validation_failed -> 4
  | Lock_contention -> 5
  | Killed -> 6
  | Explicit -> 7
  | Injected -> 8
  | Poisoned -> 9

let reason_count = 10

let all_reasons =
  [ Read_locked; Read_inconsistent; Read_too_new; Window_invalid;
    Validation_failed; Lock_contention; Killed; Explicit; Injected;
    Poisoned ]
