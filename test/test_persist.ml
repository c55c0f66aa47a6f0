(* lib/persist: CRC framing, the write-ahead log, group commit,
   recovery, torn-tail handling, fault injection (fsync failures, short
   writes) and the per-engine durability hook. *)

open Stm_core

(* Durability state is process-global; every test restores a clean
   slate and works on a private temp file. *)
let with_wal_file f =
  let path = Filename.temp_file "test_persist" ".wal" in
  let finally () =
    Persist.reset_for_testing ();
    Faults.disable ();
    Stats.reset_durable_counters ();
    try Sys.remove path with Sys_error _ -> ()
  in
  Persist.reset_for_testing ();
  Fun.protect ~finally (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let mk_ptvar ?(v = 100) id =
  Persist.Ptvar.make ~id ~codec:Persist.Codec.int v

(* --- codecs ----------------------------------------------------------- *)

let test_codecs () =
  let roundtrip : 'a. 'a Persist.Codec.t -> 'a -> 'a =
   fun c v -> c.Persist.Codec.decode (c.Persist.Codec.encode v)
  in
  List.iter
    (fun v ->
      Alcotest.(check int) "int roundtrip" v (roundtrip Persist.Codec.int v))
    [ 0; 1; -1; 42; max_int; min_int ];
  Alcotest.(check string) "string is identity" "abc\000def"
    (roundtrip Persist.Codec.string "abc\000def");
  Alcotest.check_raises "int codec rejects wrong length"
    (Invalid_argument "Persist.Codec.int: expected 8 bytes") (fun () ->
      ignore (Persist.Codec.int.Persist.Codec.decode "short"))

(* --- CRC-32 ----------------------------------------------------------- *)

let test_crc32 () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int) "crc32(\"123456789\")" 0xCBF43926
    (Persist.Crc32.string "123456789");
  Alcotest.(check int) "crc32(\"\") is 0" 0 (Persist.Crc32.string "");
  (* Seeding with a prior digest chains: crc(a ++ b). *)
  let a = "hello " and b = "world" in
  Alcotest.(check int) "digest chains across fragments"
    (Persist.Crc32.string (a ^ b))
    (Persist.Crc32.digest ~seed:(Persist.Crc32.string a) b ~pos:0
       ~len:(String.length b))

(* --- WAL roundtrip through a real engine ------------------------------ *)

module type ENGINE = Stm_intf.S with type 'a tvar = 'a Tvar.t

let engines : (string * (module ENGINE)) list =
  [ ("TL2", (module Classic_stm.Tl2));
    ("OE-STM", (module Oestm.Oe));
    ("View-STM", (module Oestm.View)) ]

let transfer (module S : ENGINE) a b =
  S.atomic (fun ctx ->
      S.write ctx (Persist.Ptvar.tvar a) (S.read ctx (Persist.Ptvar.tvar a) - 1);
      S.write ctx (Persist.Ptvar.tvar b) (S.read ctx (Persist.Ptvar.tvar b) + 1))

let test_engine_roundtrip ((name, engine) : string * (module ENGINE)) () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 and b = mk_ptvar 1 in
      Persist.enable ~path ();
      for _ = 1 to 5 do
        transfer engine a b
      done;
      Alcotest.(check int) (name ^ ": records appended") 5
        (Persist.appended_records ());
      Alcotest.(check int) (name ^ ": all acked at sync_every=1") 5
        (Persist.acked_records ());
      let max_wv = Persist.acked_wv () in
      Alcotest.(check bool) (name ^ ": acked wv positive") true (max_wv > 0);
      Persist.reset_for_testing ();
      (* Restart: fresh ptvars at the initial value, replay the log. *)
      let a' = mk_ptvar 0 and b' = mk_ptvar 1 in
      let s = Persist.recover ~path () in
      Alcotest.(check int) (name ^ ": updates replayed") 5 s.Persist.updates_intact;
      Alcotest.(check int) (name ^ ": values recovered") 95
        (Persist.Ptvar.value a');
      Alcotest.(check int) (name ^ ": conservation") 200
        (Persist.Ptvar.value a' + Persist.Ptvar.value b');
      Alcotest.(check int) (name ^ ": max_wv matches acked") max_wv
        s.Persist.max_wv;
      Alcotest.(check bool) (name ^ ": nothing torn") false s.Persist.truncated;
      (* The clock was fenced above the replayed versions: the next
         durable commit must mint a strictly larger wv. *)
      Persist.enable ~path ();
      transfer engine a' b';
      Alcotest.(check bool) (name ^ ": post-recovery wv above replayed max")
        true
        (Persist.acked_wv () > max_wv))

(* --- group commit ----------------------------------------------------- *)

let test_group_commit () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 and b = mk_ptvar 1 in
      Persist.enable ~sync_every:3 ~path ();
      let e = List.assoc "TL2" engines in
      transfer e a b;
      transfer e a b;
      Alcotest.(check int) "two pending, none acked" 0
        (Persist.acked_records ());
      Alcotest.(check int) "but both appended" 2 (Persist.appended_records ());
      transfer e a b;
      Alcotest.(check int) "third commit triggers the batch fsync" 3
        (Persist.acked_records ());
      transfer e a b;
      Alcotest.(check int) "fourth waits for the next batch" 3
        (Persist.acked_records ());
      Persist.sync ();
      Alcotest.(check int) "explicit sync drains it" 4
        (Persist.acked_records ()))

let test_no_sync_mode () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 and b = mk_ptvar 1 in
      Persist.enable ~sync_every:0 ~path ();
      let e = List.assoc "TL2" engines in
      for _ = 1 to 10 do
        transfer e a b
      done;
      Alcotest.(check int) "negative control never acks" 0
        (Persist.acked_records ());
      Alcotest.(check int) "records are still staged" 10
        (Persist.appended_records ()))

(* --- aborted work leaves no record ------------------------------------ *)

let test_no_record_on_abort () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 in
      Persist.enable ~path ();
      let module S = Classic_stm.Tl2 in
      (try
         S.atomic (fun ctx ->
             S.write ctx (Persist.Ptvar.tvar a) 1;
             raise Exit)
       with Exit -> ());
      Alcotest.(check int) "raising body appends nothing" 0
        (Persist.appended_records ());
      S.atomic (fun ctx -> ignore (S.read ctx (Persist.Ptvar.tvar a)));
      Alcotest.(check int) "read-only commit appends nothing" 0
        (Persist.appended_records ());
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 7);
      Alcotest.(check int) "a real write commits one record" 1
        (Persist.appended_records ()))

let test_durability_off_is_noop () =
  with_wal_file (fun _path ->
      let a = mk_ptvar 0 in
      let before = (Stats.durable_counters ()).Stats.durable_commits in
      let module S = Classic_stm.Tl2 in
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 1);
      Alcotest.(check bool) "flag stays down" false Runtime.plane.durable;
      Alcotest.(check int) "no durable commit counted" before
        (Stats.durable_counters ()).Stats.durable_commits)

(* --- torn-tail fuzz --------------------------------------------------- *)

(* Build a log of [n] single-entry records (ptvar 0 set to 100+k), then
   mutilate the last record every way a crash can: truncate at every
   offset inside it, and flip every one of its bytes.  Recovery must
   always keep the first [n-1] records and never replay the corrupt
   one. *)
let test_torn_tail_fuzz () =
  with_wal_file (fun path ->
      let n = 6 in
      let a = mk_ptvar 0 in
      Persist.enable ~path ();
      let module S = Classic_stm.Tl2 in
      for k = 1 to n do
        S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) (100 + k))
      done;
      Persist.reset_for_testing ();
      let whole = read_file path in
      let sc = Persist.Wal.scan_string whole in
      Alcotest.(check int) "fixture has n records" n
        (List.length sc.Persist.Wal.s_records);
      Alcotest.(check int) "fixture has no tail" (String.length whole)
        sc.Persist.Wal.s_good_end;
      let last_off = fst (List.nth sc.Persist.Wal.s_records (n - 1)) in
      let check_variant ~what mutated =
        let sc' = Persist.Wal.scan_string mutated in
        Alcotest.(check int)
          (what ^ ": exactly the intact prefix survives")
          (n - 1)
          (List.length sc'.Persist.Wal.s_records);
        Alcotest.(check int)
          (what ^ ": good_end at the last intact frame")
          last_off sc'.Persist.Wal.s_good_end;
        (* End-to-end: write it out, recover, check state and file. *)
        write_file path mutated;
        Persist.reset_for_testing ();
        let a' = mk_ptvar 0 in
        let s = Persist.recover ~path () in
        Alcotest.(check int) (what ^ ": replayed n-1 updates") (n - 1)
          s.Persist.updates_intact;
        Alcotest.(check int)
          (what ^ ": state is the last intact value")
          (100 + (n - 1))
          (Persist.Ptvar.value a');
        Alcotest.(check bool) (what ^ ": tail was truncated")
          (String.length mutated > last_off)
          s.Persist.truncated;
        Alcotest.(check int) (what ^ ": file cut back to the prefix")
          last_off
          (String.length (read_file path))
      in
      (* Truncations: every length in [last_off, len). *)
      for cut = last_off to String.length whole - 1 do
        check_variant
          ~what:(Printf.sprintf "truncate@%d" cut)
          (String.sub whole 0 cut)
      done;
      (* Bit flips: every byte of the last record. *)
      for off = last_off to String.length whole - 1 do
        let b = Bytes.of_string whole in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
        check_variant
          ~what:(Printf.sprintf "flip@%d" off)
          (Bytes.to_string b)
      done)

let test_missing_and_garbage_log () =
  with_wal_file (fun path ->
      Sys.remove path;
      let a = mk_ptvar 0 in
      let s = Persist.recover ~path () in
      Alcotest.(check int) "missing log replays nothing" 0
        s.Persist.updates_intact;
      Alcotest.(check int) "value untouched" 100 (Persist.Ptvar.value a);
      write_file path "this is not a WAL";
      let s = Persist.recover ~path () in
      Alcotest.(check int) "bad magic replays nothing" 0
        s.Persist.updates_intact;
      Alcotest.(check bool) "bad magic is never truncated" false
        s.Persist.truncated;
      Alcotest.(check string) "file left alone" "this is not a WAL"
        (read_file path))

(* --- fault injection -------------------------------------------------- *)

let test_fsync_failure () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 in
      Persist.enable ~path ();
      Faults.enable { Faults.default with Faults.seed = 11; fsync_fail = 1.0 };
      let module S = Classic_stm.Tl2 in
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 1);
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 2);
      Alcotest.(check int) "appended despite failing fsync" 2
        (Persist.appended_records ());
      Alcotest.(check int) "nothing acknowledged" 0 (Persist.acked_records ());
      Alcotest.(check bool) "failed fsync does not poison" false
        (Persist.wal_broken ());
      let c = Stats.durable_counters () in
      Alcotest.(check bool) "failures counted" true
        (c.Stats.wal_sync_failures >= 2);
      (* Once the injector clears, an explicit sync catches up. *)
      Faults.disable ();
      Persist.sync ();
      Alcotest.(check int) "sync catches up afterwards" 2
        (Persist.acked_records ()))

let test_short_write_poisons () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 in
      Persist.enable ~path ();
      let module S = Classic_stm.Tl2 in
      for k = 1 to 3 do
        S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) (100 + k))
      done;
      Faults.enable { Faults.default with Faults.seed = 7; short_write = 1.0 };
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 999);
      Faults.disable ();
      Alcotest.(check bool) "short write poisons the log" true
        (Persist.wal_broken ());
      Alcotest.(check int) "acks stop at the intact prefix" 3
        (Persist.acked_records ());
      (* Committed user code never saw an exception; further commits are
         simply no longer durable. *)
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 1000);
      Alcotest.(check int) "appends dropped once broken" 4
        (Persist.appended_records ());
      let c = Stats.durable_counters () in
      Alcotest.(check bool) "short write counted" true
        (c.Stats.wal_short_writes >= 1);
      Persist.reset_for_testing ();
      let a' = mk_ptvar 0 in
      let s = Persist.recover ~path () in
      Alcotest.(check int) "recovery keeps the intact records" 3
        s.Persist.updates_intact;
      Alcotest.(check int) "state from the intact prefix" 103
        (Persist.Ptvar.value a'))

(* --- unknown record types -------------------------------------------- *)

(* A checkpoint frame as older builds wrote it: type 2, then per entry a
   persistent id, the committed version and the value. *)
let checkpoint_frame ~wv entries =
  let p = Buffer.create 64 in
  let add_u32 b n = Buffer.add_int32_le b (Int32.of_int n) in
  Buffer.add_char p '\002';
  Buffer.add_int64_le p (Int64.of_int wv);
  add_u32 p (List.length entries);
  List.iter
    (fun (pid, version, bytes) ->
      add_u32 p pid;
      Buffer.add_int64_le p (Int64.of_int version);
      add_u32 p (String.length bytes);
      Buffer.add_string p bytes)
    entries;
  let payload = Buffer.contents p in
  let len = Buffer.create 4 in
  add_u32 len (String.length payload);
  let len = Buffer.contents len in
  let crc =
    Persist.Crc32.digest ~seed:(Persist.Crc32.string len) payload ~pos:0
      ~len:(String.length payload)
  in
  let f = Buffer.create 64 in
  Buffer.add_string f len;
  add_u32 f crc;
  Buffer.add_string f payload;
  Buffer.contents f

(* The log holds update records only: a type-2 frame between two intact
   updates is undecodable, so recovery replays the first update and cuts
   the log there, dropping the update behind it. *)
let test_checkpoint_frame_cuts_log () =
  with_wal_file (fun path ->
      let enc = Persist.Codec.int.Persist.Codec.encode in
      let append_update wv v =
        let w = Persist.Wal.open_log ~path ~sync_every:1 ~sync_ns:0 in
        Persist.Wal.append w (Persist.Wal.Update { wv; entries = [ (0, enc v) ] });
        Persist.Wal.close w
      in
      append_update 1 1;
      let cut = String.length (read_file path) in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path
        (fun oc ->
          Out_channel.output_string oc
            (checkpoint_frame ~wv:5 [ (0, 5, enc 7) ]));
      append_update 9 3;
      let a = mk_ptvar 0 in
      let s = Persist.recover ~path () in
      Alcotest.(check int) "only the first update is intact" 1
        s.Persist.updates_intact;
      Alcotest.(check int) "state is the first update's" 1
        (Persist.Ptvar.value a);
      Alcotest.(check int) "max_wv is the first update's" 1 s.Persist.max_wv;
      Alcotest.(check bool) "the log was cut" true s.Persist.truncated;
      Alcotest.(check int) "cut at the type-2 frame" cut
        (String.length (read_file path)))

(* --- registration discipline ------------------------------------------ *)

let test_registration_errors () =
  with_wal_file (fun path ->
      let _a = mk_ptvar 0 in
      Alcotest.check_raises "duplicate pid rejected"
        (Invalid_argument "Persist: persistent id 0 is already registered")
        (fun () -> ignore (mk_ptvar 0));
      Persist.enable ~path ();
      Alcotest.check_raises "double enable rejected"
        (Invalid_argument "Persist.enable: already enabled") (fun () ->
          Persist.enable ~path ());
      Alcotest.check_raises "recover refuses a live log"
        (Invalid_argument "Persist.recover: disable the live log first")
        (fun () -> ignore (Persist.recover ~path ())))

let suite =
  [ Alcotest.test_case "codecs" `Quick test_codecs;
    Alcotest.test_case "crc32 vectors and chaining" `Quick test_crc32;
    Alcotest.test_case "group commit acks in batches" `Quick
      test_group_commit;
    Alcotest.test_case "no-sync negative control acks nothing" `Quick
      test_no_sync_mode;
    Alcotest.test_case "aborts and read-only commits leave no record"
      `Quick test_no_record_on_abort;
    Alcotest.test_case "durability off is a no-op" `Quick
      test_durability_off_is_noop;
    Alcotest.test_case "torn-tail fuzz: truncations and bit flips" `Quick
      test_torn_tail_fuzz;
    Alcotest.test_case "missing and garbage logs" `Quick
      test_missing_and_garbage_log;
    Alcotest.test_case "fsync failures hold back the ack" `Quick
      test_fsync_failure;
    Alcotest.test_case "short write poisons, prefix recovers" `Quick
      test_short_write_poisons;
    Alcotest.test_case "a type-2 frame cuts the log" `Quick
      test_checkpoint_frame_cuts_log;
    Alcotest.test_case "registration discipline" `Quick
      test_registration_errors ]
  @ List.map
      (fun (name, _ as e) ->
        Alcotest.test_case
          (Printf.sprintf "durable roundtrip: %s" name)
          `Quick (test_engine_roundtrip e))
      engines
