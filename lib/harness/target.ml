(** Benchmark targets: one (STM × structure) pair, or a bare sequential
    structure, presented behind a uniform first-class-module interface so
    the sweep driver is generic. *)

open Stm_core

[@@@txlint.allow "stm-escape"
    "preload and post-run check helpers are quiescent: they run \
     strictly before the timed region or after all worker domains join"]

type structure =
  | Linked_list
  | Skip_list
  | Hash_set of { load_factor : int }
        (** bucket count = initial size / load_factor (paper: 512) *)

let structure_name = function
  | Linked_list -> "LinkedListSet"
  | Skip_list -> "SkipListSet"
  | Hash_set { load_factor } -> Printf.sprintf "HashSet(lf=%d)" load_factor

module type TARGET = sig
  val name : string

  val setup : Workload.config -> unit
  (** Fresh structure, preloaded per the workload config. *)

  val run_op : Workload.op -> unit

  val abort_snapshot : unit -> Stats.snapshot
  val reset_stats : unit -> unit
end

let buckets_for cfg load_factor = max 1 ((1 lsl cfg.Workload.size_exp) / load_factor)

(* The operations a target drives on its structure, with [int] keys. *)
module type OPS = sig
  type t

  val unsafe_preload : t -> int list -> unit
  val contains : t -> int -> bool
  val add : t -> int -> bool
  val remove : t -> int -> bool
  val add_all : t -> int list -> bool
  val remove_all : t -> int list -> bool
end

(* One series' three structure implementations and its stats. *)
module type IMPL = sig
  val name : string

  module Ll : sig
    include OPS

    val create : unit -> t
  end

  module Sk : sig
    include OPS

    val create : unit -> t
  end

  module Hs : sig
    include OPS

    val create_with_buckets : int -> t
  end

  val abort_snapshot : unit -> Stats.snapshot
  val reset_stats : unit -> unit
end

(* Wire one series' structure into the TARGET interface. *)
module Make
    (X : IMPL) (C : sig
      val structure : structure
    end) : TARGET =
struct
  let name = X.name

  (* Preload [t] and return the op dispatcher over it. *)
  let bind (type s) (module M : OPS with type t = s) (t : s) keys =
    M.unsafe_preload t keys;
    function
    | Workload.Contains v -> ignore (M.contains t v)
    | Workload.Add v -> ignore (M.add t v)
    | Workload.Remove v -> ignore (M.remove t v)
    | Workload.Add_all (a, b) -> ignore (M.add_all t [ a; b ])
    | Workload.Remove_all (a, b) -> ignore (M.remove_all t [ a; b ])

  let cell : (Workload.op -> unit) option ref = ref None

  let setup cfg =
    let keys = Workload.initial_keys cfg in
    cell :=
      Some
        (match C.structure with
        | Linked_list -> bind (module X.Ll) (X.Ll.create ()) keys
        | Skip_list -> bind (module X.Sk) (X.Sk.create ()) keys
        | Hash_set { load_factor } ->
          bind (module X.Hs)
            (X.Hs.create_with_buckets (buckets_for cfg load_factor))
            keys)

  let run_op op =
    match !cell with
    | Some run -> run op
    | None -> invalid_arg "Target.run_op before setup"

  let abort_snapshot = X.abort_snapshot
  let reset_stats = X.reset_stats
end

(* A transactional series: the e.e.c structures over one STM. *)
module Stm_impl (S : Stm_intf.S) : IMPL = struct
  let name = S.name

  module Ll = Eec.Linked_list_set.Make (S) (Eec.Set_intf.Int_key)
  module Sk = Eec.Skip_list_set.Make (S) (Eec.Set_intf.Int_key)
  module Hs = Eec.Hash_set.Make (S) (Eec.Set_intf.Int_key)

  let abort_snapshot () = Stats.snapshot S.stats
  let reset_stats () = Stats.reset S.stats
end

(* The bare sequential baseline. *)
module Seq_impl : IMPL = struct
  let name = "Sequential"

  module Ll = Seqds.Linked_list (Seqds.Int_key)
  module Sk = Seqds.Skip_list (Seqds.Int_key)
  module Hs = Seqds.Hash (Seqds.Int_key)

  let abort_snapshot = Stats.empty_snapshot
  let reset_stats () = ()
end

(** The five series of every figure: Sequential, OE-STM, LSA, TL2, SwissTM. *)
let series_for structure : (module TARGET) list =
  let module C = struct
    let structure = structure
  end in
  [ (module Make (Seq_impl) (C) : TARGET);
    (module Make (Stm_impl (Oestm.Oe)) (C) : TARGET);
    (module Make (Stm_impl (Classic_stm.Lsa)) (C) : TARGET);
    (module Make (Stm_impl (Classic_stm.Tl2)) (C) : TARGET);
    (module Make (Stm_impl (Classic_stm.Swisstm)) (C) : TARGET) ]
