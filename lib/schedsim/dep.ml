(* Dependence (non-commutativity) of scheduling steps, computed from the
   access footprints recorded by [Sched].  Two steps are independent iff
   swapping adjacent occurrences of them cannot change the state or either
   step's enabledness — here: they share no protection element, or share
   only elements both merely read. *)

open Stm_core

(* A footprint is a sorted, deduplicated array of (location, stores?) pairs.
   Lock transitions count as stores: acquisition/release is a
   read-modify-write of the protection element. *)
type entry = { loc : int; stores : bool }
type t = entry array

let empty : t = [||]

let is_empty (t : t) = Array.length t = 0

let of_accesses accs : t =
  let raw =
    List.filter_map
      (function
        | Runtime.Pure -> None
        | Runtime.Read pe -> Some { loc = pe; stores = false }
        | Runtime.Write pe | Runtime.Lock pe -> Some { loc = pe; stores = true })
      accs
  in
  match raw with
  | [] -> empty
  | raw ->
    let sorted = List.sort (fun a b -> compare a.loc b.loc) raw in
    let dedup =
      List.fold_left
        (fun out e ->
          match out with
          | prev :: rest when prev.loc = e.loc ->
            { loc = e.loc; stores = prev.stores || e.stores } :: rest
          | _ -> e :: out)
        [] sorted
    in
    Array.of_list (List.rev dedup)

(* Merge walk over the two sorted footprints: dependent iff some common
   location carries a store on either side. *)
let dependent (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na || j >= nb then false
    else
      let ea = a.(i) and eb = b.(j) in
      if ea.loc < eb.loc then go (i + 1) j
      else if ea.loc > eb.loc then go i (j + 1)
      else (ea.stores || eb.stores) || go (i + 1) (j + 1)
  in
  go 0 0

let iter f (t : t) = Array.iter (fun e -> f ~loc:e.loc ~stores:e.stores) t

(* Single-annotation variant, used for documentation and sanity tests:
   matches [dependent] on one-access footprints. *)
let dependent_access a b =
  match (a, b) with
  | Runtime.Pure, _ | _, Runtime.Pure -> false
  | Runtime.Read _, Runtime.Read _ -> false
  | ( (Runtime.Read x | Runtime.Write x | Runtime.Lock x),
      (Runtime.Read y | Runtime.Write y | Runtime.Lock y) ) ->
    x = y

let pp ppf (t : t) =
  Format.fprintf ppf "{";
  Array.iteri
    (fun i e ->
      if i > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%s%d" (if e.stores then "W" else "R")
        e.loc)
    t;
  Format.fprintf ppf "}"
