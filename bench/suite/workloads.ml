(* The four workloads.  Each is a closed loop over ops generated from the
   seed; a trial builds a fresh structure (timed set-up), runs the ops on
   [workers] domains and checks the final state.  Everything here goes
   through the public APIs of eec, oestm, classic_stm, persist and seqds. *)

open Stm_core

module type ENGINE = Stm_intf.S with type 'a tvar = 'a Tvar.t

type engine = Oe | Tl2

let engines = [ Oe; Tl2 ]
let engine_name = function Oe -> "oe" | Tl2 -> "tl2"
let engine_stats = function Oe -> Oestm.Oe.stats | Tl2 -> Classic_stm.Tl2.stats

type instance = {
  exec : int -> unit;  (** run one encoded op; raises if the op fails *)
  check : executed:int array -> (unit, string) result;
      (** end check after join; [executed.(w)] ops ran on worker [w] *)
}

type t = {
  name : string;
  why : string;
  workers : int;
  keys : int;  (** elements (list) or accounts (bank) of the structure *)
  durable : bool;  (** latency ends at the WAL acknowledgement *)
  gen : Splitmix.t -> int;  (** one encoded op *)
  op_name : int -> string;
  prepare : unit -> unit;  (** untimed, before every trial's set-up *)
  setup : engine -> ops:int array array -> instance;  (** timed *)
  footprint_words : unit -> int;  (** reachable words once preloaded *)
  seq : unit -> int -> unit;  (** fresh sequential reference *)
  log_size : unit -> int;  (** bytes in the trial's WAL; 0 without one *)
}

let ( let* ) = Result.bind
let check_that ok msg = if ok then Ok () else Error msg

(* ------------------------------------------------------------------ *)
(* LinkedListSet                                                       *)

(* Ops: kind in the low 3 bits, key above.  Bulk ops work on {v, v/2},
   as in the paper's composed addAll/removeAll. *)
let k_contains = 0
and k_add = 1
and k_remove = 2
and k_add_all = 3
and k_remove_all = 4

let list_op_names = [| "contains"; "add"; "remove"; "addAll"; "removeAll" |]
let partner v = (v + 1) / 2

let gen_list_op ~range ~update ~bulk rng =
  let v = Splitmix.int rng range in
  let r = Splitmix.float rng in
  let coin () = Splitmix.int rng 2 = 0 in
  let kind =
    if r >= update then k_contains
    else if r < bulk then if coin () then k_add_all else k_remove_all
    else if coin () then k_add
    else k_remove
  in
  kind lor (v lsl 3)

module List_set (E : ENGINE) = struct
  module L = Eec.Linked_list_set.Make (E) (Eec.Set_intf.Int_key)

  let build keys =
    let t = L.create () in
    L.unsafe_preload t keys;
    t

  let exec t op =
    let v = op lsr 3 in
    match op land 7 with
    | 0 -> ignore (L.contains t v)
    | 1 -> ignore (L.add t v)
    | 2 -> ignore (L.remove t v)
    | 3 -> ignore (L.add_all t [ v; partner v ])
    | _ -> ignore (L.remove_all t [ v; partner v ])
end

module Ll_oe = List_set (Oestm.Oe)
module Ll_tl2 = List_set (Classic_stm.Tl2)
module Seq_list = Seqds.Linked_list (Seqds.Int_key)

let seq_list_exec t op =
  let v = op lsr 3 in
  match op land 7 with
  | 0 -> ignore (Seq_list.contains t v)
  | 1 -> ignore (Seq_list.add t v)
  | 2 -> ignore (Seq_list.remove t v)
  | 3 -> ignore (Seq_list.add_all t [ v; partner v ])
  | _ -> ignore (Seq_list.remove_all t [ v; partner v ])

(* Keys an executed op may have changed. *)
let touched ~range ops ~executed =
  let hit = Bytes.make range '\000' in
  Array.iteri
    (fun w ops ->
      for i = 0 to min executed.(w) (Array.length ops) - 1 do
        let op = ops.(i) in
        let v = op lsr 3 in
        if op land 7 <> k_contains then begin
          Bytes.set hit v '\001';
          if op land 7 >= k_add_all then Bytes.set hit (partner v) '\001'
        end
      done)
    ops;
  hit

(* One worker: the final contents must equal a sequential replay of the
   executed ops.  Two workers: keys no executed update touched keep their
   preloaded membership.  Always: sorted, duplicate-free, in range. *)
let check_list ~range ~keys ~ops ~executed ~invariants ~contents =
  let* () = invariants () in
  let got = contents () in
  let* () =
    check_that (List.for_all (fun k -> k >= 0 && k < range) got) "key out of range"
  in
  if Array.length ops = 1 then begin
    let s = Seq_list.create () in
    Seq_list.unsafe_preload s keys;
    let ops = ops.(0) in
    let n = Array.length ops in
    for i = 0 to executed.(0) - 1 do
      seq_list_exec s ops.(i land (n - 1))
    done;
    check_that (Seq_list.to_list s = got) "contents differ from the sequential replay"
  end
  else begin
    let hit = touched ~range ops ~executed in
    let present = Bytes.make range '\000' in
    List.iter (fun k -> Bytes.set present k '\001') got;
    let ok = ref true in
    for k = 0 to range - 1 do
      if Bytes.get hit k = '\000' && (Bytes.get present k = '\001') <> (k mod 2 = 0) then
        ok := false
    done;
    check_that !ok "an untouched key changed membership"
  end

let linked_list ~name ~why ~size_exp ~update ~bulk ~workers =
  let range = 1 lsl (size_exp + 1) in
  let keys = List.init (1 lsl size_exp) (fun i -> 2 * i) in
  let setup engine ~ops =
    let exec, invariants, contents =
      match engine with
      | Oe ->
        let t = Ll_oe.build keys in
        (Ll_oe.exec t, (fun () -> Ll_oe.L.check_invariants t), fun () -> Ll_oe.L.to_list t)
      | Tl2 ->
        let t = Ll_tl2.build keys in
        (Ll_tl2.exec t, (fun () -> Ll_tl2.L.check_invariants t), fun () -> Ll_tl2.L.to_list t)
    in
    { exec;
      check = (fun ~executed -> check_list ~range ~keys ~ops ~executed ~invariants ~contents) }
  in
  { name; why; workers; keys = List.length keys; durable = false;
    gen = gen_list_op ~range ~update ~bulk;
    op_name = (fun op -> list_op_names.(op land 7));
    prepare = ignore; setup;
    footprint_words = (fun () -> Obj.reachable_words (Obj.repr (Ll_oe.build keys)));
    seq =
      (fun () ->
        let s = Seq_list.create () in
        Seq_list.unsafe_preload s keys;
        seq_list_exec s);
    log_size = (fun () -> 0) }

(* ------------------------------------------------------------------ *)
(* Bank                                                                *)

let accounts = 1024

(* Large enough that no withdraw of at most [max_amount] ever fails over
   any run this suite makes. *)
let initial_balance = 1_000_000_000
let max_amount = 100

(* Ops: src | dst << 16 | amount << 32, src <> dst. *)
let gen_transfer rng =
  let src = Splitmix.int rng accounts in
  let dst = (src + 1 + Splitmix.int rng (accounts - 1)) mod accounts in
  let amount = 1 + Splitmix.int rng max_amount in
  src lor (dst lsl 16) lor (amount lsl 32)

let src_of op = op land 0xffff
let dst_of op = (op lsr 16) land 0xffff
let amount_of op = op lsr 32

(* transfer = withdraw + deposit child transactions inside one elastic
   [atomic], as in examples/bank_transfer.ml. *)
module Bank (E : ENGINE) = struct
  let withdraw (acc : int Tvar.t array) i amount =
    E.atomic ~mode:Elastic (fun ctx ->
        let v = E.read ctx acc.(i) in
        if v >= amount then begin
          E.write ctx acc.(i) (v - amount);
          true
        end
        else false)

  let deposit (acc : int Tvar.t array) i amount =
    E.atomic ~mode:Elastic (fun ctx -> E.write ctx acc.(i) (E.read ctx acc.(i) + amount))

  let transfer acc ~src ~dst amount =
    E.atomic ~mode:Elastic (fun _ ->
        withdraw acc src amount
        && begin
             deposit acc dst amount;
             true
           end)

  let exec acc op =
    if not (transfer acc ~src:(src_of op) ~dst:(dst_of op) (amount_of op)) then
      failwith "transfer refused"
end

module Bank_oe = Bank (Oestm.Oe)
module Bank_tl2 = Bank (Classic_stm.Tl2)

let bank_exec engine acc =
  match engine with Oe -> Bank_oe.exec acc | Tl2 -> Bank_tl2.exec acc

let conservation balances =
  let* () =
    check_that (Array.for_all (fun b -> b >= 0) balances) "negative balance"
  in
  check_that
    (Array.fold_left ( + ) 0 balances = accounts * initial_balance)
    "money not conserved"

let seq_bank () =
  let b = Array.make accounts initial_balance in
  fun op ->
    let src = src_of op and dst = dst_of op and amount = amount_of op in
    if b.(src) < amount then failwith "transfer refused";
    b.(src) <- b.(src) - amount;
    b.(dst) <- b.(dst) + amount

let bank =
  let build () = Array.init accounts (fun _ -> Tvar.make initial_balance) in
  { name = "bank";
    why =
      "short write transactions (2 reads, 2 writes, nested merge) on 1 worker: \
       write set, locking, clock tick and install dominate; the read path idles";
    workers = 1; keys = accounts; durable = false; gen = gen_transfer;
    op_name = (fun _ -> "transfer"); prepare = ignore;
    setup =
      (fun engine ~ops:_ ->
        let acc = build () in
        { exec = bank_exec engine acc;
          check = (fun ~executed:_ -> conservation (Array.map Tvar.peek acc)) });
    footprint_words = (fun () -> Obj.reachable_words (Obj.repr (build ())));
    seq = seq_bank; log_size = (fun () -> 0) }

(* ------------------------------------------------------------------ *)
(* Durable bank                                                        *)

let base_records = 1 lsl 16
let sync_every = 8

(* The fixed log every bank-durable trial recovers from: [base_records]
   transfers generated from the seed, written once per process. *)
type base_log = { path : string; balances : int array }

let write_base_log ~seed ~dir =
  let path = Filename.concat dir "base.wal" in
  let rng = Splitmix.create ~seed ~stream:1000 in
  let b = Array.make accounts initial_balance in
  let w = Persist.Wal.open_log ~path ~sync_every:0 ~sync_ns:0 in
  let enc = Persist.Codec.int.Persist.Codec.encode in
  for i = 1 to base_records do
    let op = gen_transfer rng in
    let src = src_of op and dst = dst_of op and amount = amount_of op in
    b.(src) <- b.(src) - amount;
    b.(dst) <- b.(dst) + amount;
    Persist.Wal.append w
      (Persist.Wal.Update { wv = i; entries = [ (src, enc b.(src)); (dst, enc b.(dst)) ] })
  done;
  Persist.Wal.close w;
  { path; balances = b }

let copy_file ~src ~dst =
  let ic = open_in_bin src in
  let data = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let make_ptvars init =
  Array.init accounts (fun id -> Persist.Ptvar.make ~id ~codec:Persist.Codec.int init)

(* Registers fresh ptvars and replays [path] into them. *)
let recover_into ~path init =
  let ps = make_ptvars init in
  let s = Persist.recover ~path () in
  (ps, s)

let bank_durable ~dir ~base =
  let trial_log = Filename.concat dir "trial.wal" in
  let setup engine ~ops:_ =
    let base = Lazy.force base in
    let ps, s = recover_into ~path:trial_log 0 in
    let recovered = Array.map Persist.Ptvar.value ps in
    if s.Persist.updates_intact <> base_records || recovered <> base.balances then
      failwith "set-up recovery does not match the base log";
    Persist.enable ~sync_every ~path:trial_log ();
    let acc = Array.map Persist.Ptvar.tvar ps in
    let check ~executed:_ =
      let mem = Array.map Persist.Ptvar.value ps in
      let appended = Persist.appended_records () in
      let broken = Persist.wal_broken () in
      Persist.reset_for_testing ();
      let fresh, s = recover_into ~path:trial_log (-1) in
      let replayed = Array.map Persist.Ptvar.value fresh in
      Persist.reset_for_testing ();
      let* () = conservation mem in
      let* () = check_that (not broken) "WAL broken" in
      let* () =
        check_that (s.Persist.updates_intact = base_records + appended)
          "recovered update count differs from records appended"
      in
      check_that (replayed = mem) "recovered balances differ from memory"
    in
    { exec = bank_exec engine acc; check }
  in
  { name = "bank-durable";
    why =
      "the bank's transfers over persistent accounts with a WAL that appends \
       and fsyncs (sync_every=8) on 1 worker; set-up recovers a 2^16-record log";
    workers = 1; keys = accounts; durable = true; gen = gen_transfer;
    op_name = (fun _ -> "transfer");
    prepare =
      (fun () ->
        Persist.reset_for_testing ();
        copy_file ~src:(Lazy.force base).path ~dst:trial_log);
    setup;
    footprint_words =
      (fun () ->
        Persist.reset_for_testing ();
        let w = Obj.reachable_words (Obj.repr (make_ptvars initial_balance)) in
        Persist.reset_for_testing ();
        w);
    seq = seq_bank;
    log_size = (fun () -> (Unix.stat trial_log).Unix.st_size) }

(* ------------------------------------------------------------------ *)

(* [dir] holds the WAL files; [base] is forced by the first bank-durable
   trial. *)
let all ~dir ~base =
  [ linked_list ~name:"list-read"
      ~why:
        "per-read path: ~2k tvar reads per op on a 2^12-key list whose padded \
         tvars overflow L2; 6r mix (95% contains), 1 worker, no conflicts"
      ~size_exp:12 ~update:0.05 ~bulk:0.01 ~workers:1;
    linked_list ~name:"list-contend"
      ~why:
        "traversal conflicts on a 2^10-key list that fits in L2; 6b mix (20% \
         updates, 15% bulk), 2 workers: retry, validation, elastic window"
      ~size_exp:10 ~update:0.20 ~bulk:0.15 ~workers:2;
    bank;
    bank_durable ~dir ~base ]
