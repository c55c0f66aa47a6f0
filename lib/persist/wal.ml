(* The write-ahead log file: CRC32-framed records with group commit.

   On-disk layout:

     magic   8 bytes   "CRTXWAL1"
     frame*  4 bytes   payload length (u32 LE)
             4 bytes   CRC-32 over (length bytes ++ payload)
             payload

   payload:
     1 byte    record type: 1 = update (the only type)
     8 bytes   commit version wv (u64 LE)
     4 bytes   entry count (u32 LE)
     entries   { pid u32 | len u32 | bytes }

   The CRC covers the length prefix, so a bit flip in the length cannot
   silently re-frame the stream; the payload decoder is additionally
   strict (known type byte, entries consume the payload exactly), so even
   a 2^-32 CRC collision cannot replay garbage — it degrades to a torn
   tail.  Any other type byte is undecodable too: a log written by an
   older build that still holds a type-2 (checkpoint) frame is cut there.

   Group commit: [append] is one buffer enqueue; the buffer is written
   and fsynced once [sync_every] records are pending (or [sync_ns] has
   elapsed since the last sync).  Acknowledged durability is what
   [synced_records] reports — everything else is a volatile buffer and
   dies with the process, which is exactly the window the crash-restart
   chaos lane measures.  With [sync_every <= 0] the log never fsyncs and
   only drains its buffer past a size threshold: the negative-control
   mode, expected to lose the committed tail on a kill.

   Writes go out in small chunks so that a SIGKILL landing mid-flush
   leaves a torn prefix of a frame — keeping the torn-tail recovery path
   reachable by the chaos lane, not only by fault injection. *)

let magic = "CRTXWAL1"
let header_len = String.length magic

(* Smallest payload: type + wv + count. *)
let min_payload = 13

(* Upper bound on one payload; anything larger is treated as torn. *)
let max_payload = 1 lsl 30

(* Buffer threshold that triggers an OS write (no fsync) in no-sync
   mode. *)
let nosync_flush_bytes = 1 lsl 16

(* Flush chunk size; see the header comment. *)
let chunk = 512

type record =
  | Update of { wv : int; entries : (int * string) list }
      (** one committed write set: (persistent id, serialized value) *)

let record_wv (Update { wv; _ }) = wv

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let add_u32 b n = Buffer.add_int32_le b (Int32.of_int n)
let add_u64 b n = Buffer.add_int64_le b (Int64.of_int n)

let encode_payload (Update { wv; entries }) =
  let b = Buffer.create 64 in
  Buffer.add_char b '\001';
  add_u64 b wv;
  add_u32 b (List.length entries);
  List.iter
    (fun (pid, bytes) ->
      add_u32 b pid;
      add_u32 b (String.length bytes);
      Buffer.add_string b bytes)
    entries;
  Buffer.contents b

let add_frame buf payload =
  let len = String.length payload in
  let lb = Buffer.create 4 in
  add_u32 lb len;
  let len_bytes = Buffer.contents lb in
  let crc = Crc32.digest ~seed:(Crc32.string len_bytes) payload ~pos:0 ~len in
  Buffer.add_string buf len_bytes;
  add_u32 buf crc;
  Buffer.add_string buf payload

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

(* Unsigned: [Int32.to_int] sign-extends, and a CRC (or length) with the
   top bit set must compare equal to the unsigned value the encoder
   produced. *)
let get_u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF
let get_u64 s pos = Int64.to_int (String.get_int64_le s pos)

(* Strict payload decoder: [None] on any structural violation, which the
   scanner treats as a torn record. *)
let decode_payload s ~pos ~len =
  let fin = pos + len in
  let entry_count = get_u32 s (pos + 9) in
  let wv = get_u64 s (pos + 1) in
  if s.[pos] <> '\001' || wv < 0 || entry_count < 0 || entry_count > len
  then None
  else begin
    let p = ref (pos + 13) in
    let acc = ref [] in
    let ok = ref true in
    (try
       for _ = 1 to entry_count do
         if !p + 8 > fin then raise Exit;
         let pid = get_u32 s !p in
         let blen = get_u32 s (!p + 4) in
         if pid < 0 || blen < 0 || !p + 8 + blen > fin then raise Exit;
         acc := (pid, String.sub s (!p + 8) blen) :: !acc;
         p := !p + 8 + blen
       done
     with Exit -> ok := false);
    if !ok && !p = fin then Some (Update { wv; entries = List.rev !acc })
    else None
  end

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)

type scanned = {
  s_records : (int * record) list;  (** file offset of each intact frame *)
  s_good_end : int;  (** offset just past the last intact frame *)
  s_file_len : int;
  s_valid_header : bool;
}

let scan_string s =
  let len = String.length s in
  if len < header_len || String.sub s 0 header_len <> magic then
    { s_records = []; s_good_end = 0; s_file_len = len;
      s_valid_header = false }
  else begin
    let records = ref [] in
    let pos = ref header_len in
    let stop = ref false in
    while not !stop do
      let p = !pos in
      if p + 8 > len then stop := true
      else begin
        let rlen = get_u32 s p in
        if rlen < min_payload || rlen > max_payload || p + 8 + rlen > len
        then stop := true
        else begin
          let crc = get_u32 s (p + 4) in
          let computed =
            Crc32.digest
              ~seed:(Crc32.digest s ~pos:p ~len:4)
              s ~pos:(p + 8) ~len:rlen
          in
          if computed <> crc then stop := true
          else
            match decode_payload s ~pos:(p + 8) ~len:rlen with
            | None -> stop := true
            | Some r ->
              records := (p, r) :: !records;
              pos := p + 8 + rlen
        end
      end
    done;
    { s_records = List.rev !records; s_good_end = !pos; s_file_len = len;
      s_valid_header = true }
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan path = scan_string (read_file path)

let truncate_tail path ~good_end =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd good_end)

(* ------------------------------------------------------------------ *)
(* The writer                                                          *)

type t = {
  path : string;
  fd : Unix.file_descr;
  mu : Mutex.t;
  buf : Buffer.t;  (* framed records not yet handed to write(2) *)
  mutable buf_records : int;
  mutable buf_wv : int;  (* max wv among buffered records *)
  mutable appended_records : int;  (* total enqueued since open *)
  mutable written_records : int;  (* handed to the OS *)
  mutable written_wv : int;
  mutable synced_records : int;  (* covered by a completed fsync *)
  mutable synced_wv : int;
  mutable last_sync : int64;  (* Mclock stamp of the last flush decision *)
  mutable broken : bool;  (* poisoned: all further appends are dropped *)
  sync_every : int;  (* fsync once this many records are pending; <= 0:
                        never fsync (negative-control mode) *)
  sync_ns : int;  (* also fsync once this much time has passed; 0: off *)
}

let open_log ~path ~sync_every ~sync_ns =
  let existing = Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  if not existing then begin
    ignore (Unix.write_substring fd magic 0 header_len);
    Unix.fsync fd
  end;
  { path; fd; mu = Mutex.create (); buf = Buffer.create 4096;
    buf_records = 0; buf_wv = 0; appended_records = 0; written_records = 0;
    written_wv = 0; synced_records = 0; synced_wv = 0;
    last_sync = Stm_core.Mclock.now_ns (); broken = false; sync_every;
    sync_ns }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos (min chunk len) in
    write_all fd s (pos + n) (len - n)
  end

(* Write the buffer out (in chunks) and optionally fsync.  IO errors
   poison the log rather than escape: the hook that calls this runs
   inside committed user code, which must never observe a WAL failure as
   an exception.  Poisoning is visible through [broken] and the
   acknowledged counters simply stop advancing. *)
let flush_locked t ~sync =
  if not t.broken then begin
    (try
       if Buffer.length t.buf > 0 then begin
         let data = Buffer.contents t.buf in
         if Stm_core.Faults.inject_short_write () then begin
           t.broken <- true;
           Stm_core.Stats.record_wal_short_write ();
           write_all t.fd data 0 (String.length data / 2)
         end
         else begin
           write_all t.fd data 0 (String.length data);
           t.written_records <- t.written_records + t.buf_records;
           if t.buf_wv > t.written_wv then t.written_wv <- t.buf_wv
         end;
         Buffer.clear t.buf;
         t.buf_records <- 0;
         t.buf_wv <- 0
       end;
       if sync && not t.broken then begin
         if Stm_core.Faults.inject_fsync_fail () then
           Stm_core.Stats.record_wal_sync_failure ()
         else begin
           Unix.fsync t.fd;
           t.synced_records <- t.written_records;
           t.synced_wv <- t.written_wv;
           Stm_core.Stats.record_wal_sync ()
         end
       end
     with Unix.Unix_error _ | Sys_error _ -> t.broken <- true);
    t.last_sync <- Stm_core.Mclock.now_ns ()
  end

let maybe_flush_locked t =
  if t.sync_every > 0 then begin
    if
      t.appended_records - t.synced_records >= t.sync_every
      || (t.sync_ns > 0
          && Stm_core.Mclock.elapsed_ns t.last_sync >= t.sync_ns)
    then flush_locked t ~sync:true
  end
  else if Buffer.length t.buf >= nosync_flush_bytes then
    flush_locked t ~sync:false

let append t r =
  locked t (fun () ->
      if not t.broken then begin
        add_frame t.buf (encode_payload r);
        t.appended_records <- t.appended_records + 1;
        t.buf_records <- t.buf_records + 1;
        let wv = record_wv r in
        if wv > t.buf_wv then t.buf_wv <- wv;
        Stm_core.Stats.record_wal_append ();
        maybe_flush_locked t
      end)

let sync t = locked t (fun () -> flush_locked t ~sync:true)

let close t =
  locked t (fun () ->
      flush_locked t ~sync:(t.sync_every > 0);
      try Unix.close t.fd with Unix.Unix_error _ -> ())

let path t = t.path
let sync_every t = t.sync_every
let broken t = t.broken
let appended_records t = t.appended_records
let synced_records t = locked t (fun () -> t.synced_records)
let synced_wv t = locked t (fun () -> t.synced_wv)
