(* Durable-commit plumbing shared by the engines and lib/persist.

   The write-ahead log itself lives in lib/persist (it needs Unix and
   codecs); what must live down here is the part the engines touch on
   their commit paths:

   - an encoder registry mapping a tvar id to its persistent id and a
     serializer, filled by [Persist.Ptvar.make] and consulted by
     [Rwsets.Wset.capture_durable] right after a write set installs;
   - a per-process staging slot: the engine stages [(pid, bytes)] entries
     together with the commit version [wv] while still inside the
     attempt, and the attempt handler fires the staged record through
     [commit_hook] only once the attempt's outcome is a definitive
     commit (or discards it on abort, so a record is never logged for a
     transaction that did not happen);
   - the hook indirection [Persist.enable] installs into.

   The call sites are guarded by [Runtime.plane.durable], so none of it
   costs more than a load and branch while durability is off. *)

type staged = {
  s_wv : int;  (** commit version of the installing transaction *)
  s_entries : (int * string) list;
      (** persistent id, serialized committed value *)
}

(* ------------------------------------------------------------------ *)
(* Encoder registry                                                    *)

(* tvar id -> (persistent id, encoder).  Writes are mutex-guarded;
   reads are plain Hashtbl lookups, safe because registration happens
   before the tvar is shared with concurrently committing domains
   (documented contract of [Persist.Ptvar.make]). *)
let encoders : (int, int * (Obj.t -> string)) Hashtbl.t = Hashtbl.create 64
let enc_mu = Mutex.create ()

let locked f =
  Mutex.lock enc_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock enc_mu) f

let register_encoder ~tvar_id ~pid enc =
  locked (fun () -> Hashtbl.replace encoders tvar_id (pid, enc))

let encoder_for tvar_id = Hashtbl.find_opt encoders tvar_id

let reset_encoders () = locked (fun () -> Hashtbl.reset encoders)

(* ------------------------------------------------------------------ *)
(* Per-process staging                                                 *)

let staged_slot : staged option ref Domain.DLS.key =
  Runtime.local (fun () -> ref None)

let stage ~wv entries =
  if entries <> [] then
    Domain.DLS.get staged_slot := Some { s_wv = wv; s_entries = entries }

let discard_staged () = Domain.DLS.get staged_slot := None

(* ------------------------------------------------------------------ *)
(* Commit hook                                                         *)

let commit_hook : (staged -> unit) ref = ref (fun _ -> ())

let on_commit () =
  let slot = Domain.DLS.get staged_slot in
  match !slot with
  | None -> ()
  | Some st ->
    slot := None;
    Stats.record_durable_commit ();
    !commit_hook st

let reset_for_testing () =
  reset_encoders ();
  discard_staged ();
  commit_hook := fun _ -> ()
