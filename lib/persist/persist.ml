(* Durable commits: the public face of lib/persist.

   [Ptvar.make] registers a tvar under a stable persistent id with a
   codec; [enable] opens the write-ahead log and installs the commit
   hook; [recover] replays a log into the registered ptvars on restart.
   The log is append-and-redo only: it holds update records and nothing
   else, so recovery is one sort by commit version and one apply loop.

   The durability unit is the top-level committed transaction, exactly
   as the paper's relaxed-transaction model defines it: the post-install
   hook fires in the attempt handler once the outcome is a definitive
   commit, and the record carries the commit version wv, so replay can
   re-impose version order across restarts the same way the
   multi-version systems it borrows from reconstruct state from version
   order. *)

open Stm_core

(* [persist.ml] is the library's interface module, so the framing and
   file-format modules must be re-exported to stay reachable (the
   torn-tail fuzz suite drives [Wal.scan_string] directly). *)
module Crc32 = Crc32
module Wal = Wal

[@@@txlint.allow "stm-escape"
    "recovery replays into quiescent tvars (no transactions are live \
     during [recover] by contract)"]

module Codec = struct
  type 'a t = { encode : 'a -> string; decode : string -> 'a }

  let int =
    { encode =
        (fun v ->
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 (Int64.of_int v);
          Bytes.unsafe_to_string b);
      decode =
        (fun s ->
          if String.length s <> 8 then
            invalid_arg "Persist.Codec.int: expected 8 bytes";
          Int64.to_int (String.get_int64_le s 0)) }

  let string = { encode = Fun.id; decode = Fun.id }
end

(* ------------------------------------------------------------------ *)
(* Replay registry: persistent id -> replay function                   *)

let registry : (int, string -> unit) Hashtbl.t = Hashtbl.create 64
let reg_mu = Mutex.create ()

let reg_locked f =
  Mutex.lock reg_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mu) f

let register ~pid replay =
  let dup =
    reg_locked (fun () ->
        let dup = Hashtbl.mem registry pid in
        if not dup then Hashtbl.replace registry pid replay;
        dup)
  in
  if dup then
    invalid_arg
      (Printf.sprintf "Persist: persistent id %d is already registered" pid)

(* ------------------------------------------------------------------ *)
(* Persistent tvars                                                    *)

module Ptvar = struct
  type 'a t = 'a Tvar.t

  let make ~id ~codec v =
    let tv = Tvar.make v in
    register ~pid:id (fun s -> Tvar.unsafe_write tv (codec.Codec.decode s));
    Durable.register_encoder ~tvar_id:(Tvar.id tv) ~pid:id (fun o ->
        codec.Codec.encode
          (Obj.obj o [@txlint.allow "obj-magic" "o is this tvar's own value"]));
    tv

  let tvar t = t
  let value t = Tvar.peek t
end

(* ------------------------------------------------------------------ *)
(* Enable / disable                                                    *)

let wal : Wal.t option ref = ref None

let append_staged w (st : Durable.staged) =
  Wal.append w (Wal.Update { wv = st.Durable.s_wv; entries = st.Durable.s_entries })

let enable ?(sync_every = 1) ~path () =
  if Option.is_some !wal then invalid_arg "Persist.enable: already enabled";
  let w = Wal.open_log ~path ~sync_every ~sync_ns:0 in
  wal := Some w;
  Durable.commit_hook := append_staged w;
  Runtime.plane.durable <- true

let disable () =
  match !wal with
  | None -> ()
  | Some w ->
    Runtime.plane.durable <- false;
    Durable.commit_hook := (fun _ -> ());
    Wal.close w;
    wal := None

let is_enabled () = Option.is_some !wal

let with_wal f = match !wal with None -> invalid_arg "Persist: not enabled" | Some w -> f w

let sync () = with_wal Wal.sync
let wal_path () = with_wal Wal.path
let wal_sync_every () = with_wal Wal.sync_every
let wal_broken () = match !wal with None -> false | Some w -> Wal.broken w

let appended_records () =
  match !wal with None -> 0 | Some w -> Wal.appended_records w

let acked_records () =
  match !wal with None -> 0 | Some w -> Wal.synced_records w

let acked_wv () = match !wal with None -> 0 | Some w -> Wal.synced_wv w

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

type summary = {
  updates_intact : int;  (** intact update records (prefix durability) *)
  entries_applied : int;
  truncated : bool;  (** a torn tail was cut off *)
  max_wv : int;  (** highest replayed commit version (clock catch-up) *)
}

let empty_summary =
  { updates_intact = 0; entries_applied = 0; truncated = false; max_wv = 0 }

(* Replay a scanned log into the registered ptvars, in ascending wv.  wv
   order extends the real dependency order under every clock policy (an
   update that read or overwrote another's write carries a strictly larger
   wv), so replaying in wv order reconstructs a state equivalent to the
   pre-crash history; ties are between independent commits, kept in file
   order by the stable sort. *)
let replay_scanned (sc : Wal.scanned) =
  let records =
    List.stable_sort
      (fun a b -> compare (Wal.record_wv a) (Wal.record_wv b))
      (List.map snd sc.Wal.s_records)
  in
  let applied = ref 0 and max_wv = ref 0 in
  List.iter
    (fun (Wal.Update { wv; entries }) ->
      max_wv := wv;
      List.iter
        (fun (pid, bytes) ->
          match Hashtbl.find_opt registry pid with
          | Some replay ->
            replay bytes;
            incr applied
          | None -> ())
        entries)
    records;
  Clock.catch_up !max_wv;
  { updates_intact = List.length records;
    entries_applied = !applied;
    truncated = false;
    max_wv = !max_wv }

let recover ?(truncate = true) ~path () =
  if is_enabled () then
    invalid_arg "Persist.recover: disable the live log first";
  match Wal.scan path with
  | exception Sys_error _ -> empty_summary  (* no log: nothing to replay *)
  | sc ->
    let s = replay_scanned sc in
    let cut =
      truncate && sc.Wal.s_valid_header
      && sc.Wal.s_file_len > sc.Wal.s_good_end
    in
    if cut then Wal.truncate_tail path ~good_end:sc.Wal.s_good_end;
    { s with truncated = cut }

(* ------------------------------------------------------------------ *)
(* Test / restart isolation                                            *)

let reset_for_testing () =
  disable ();
  reg_locked (fun () -> Hashtbl.reset registry);
  Durable.reset_for_testing ()
