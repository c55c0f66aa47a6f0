(* Log-linear latency histogram over nanoseconds: exact below 64 ns, then
   64 sub-buckets per power of two, so a bucket is at most 1/64 (1.6%) of
   its lower bound wide.  Preallocated; recording never allocates. *)

let sub_bits = 6
let sub = 1 lsl sub_bits
let max_exp = 40 (* 2^41 ns ~ 36 minutes; larger samples are clamped *)
let size = (max_exp - sub_bits + 2) * sub

type t = int array

let create () : t = Array.make size 0

let msb v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then begin v := !v lsr 32; r := 32 end;
  if !v lsr 16 <> 0 then begin v := !v lsr 16; r := !r + 16 end;
  if !v lsr 8 <> 0 then begin v := !v lsr 8; r := !r + 8 end;
  if !v lsr 4 <> 0 then begin v := !v lsr 4; r := !r + 4 end;
  if !v lsr 2 <> 0 then begin v := !v lsr 2; r := !r + 2 end;
  if !v lsr 1 <> 0 then r := !r + 1;
  !r

let index v =
  if v < sub then if v < 0 then 0 else v
  else
    let v = if v lsr (max_exp + 1) <> 0 then (1 lsl (max_exp + 1)) - 1 else v in
    let e = msb v in
    ((e - sub_bits + 1) * sub) + ((v lsr (e - sub_bits)) land (sub - 1))

let record (h : t) v =
  let i = index v in
  h.(i) <- h.(i) + 1

(* Lower bound and width of bucket [i]. *)
let bounds i =
  if i < sub then (i, 1)
  else
    let e = (i / sub) + sub_bits - 1 and s = i mod sub in
    ((sub + s) lsl (e - sub_bits), 1 lsl (e - sub_bits))

let add_into ~(dst : t) (src : t) = Array.iteri (fun i n -> dst.(i) <- dst.(i) + n) src
let count (h : t) = Array.fold_left ( + ) 0 h

(* The sample at rank ceil(p% of count), in ns, placed within its bucket
   by its rank among the bucket's samples; nan when empty. *)
let percentile (h : t) p =
  let n = count h in
  if n = 0 then nan
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    let rec go i before =
      if before + h.(i) >= rank || i = size - 1 then begin
        let lo, width = bounds i in
        let within = (float_of_int (rank - before) -. 0.5) /. float_of_int (max 1 h.(i)) in
        float_of_int lo +. (float_of_int width *. within)
      end
      else go (i + 1) (before + h.(i))
    in
    go 0 0
