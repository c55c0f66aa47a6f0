(* SplitMix64 (Steele, Lea, Flood — OOPSLA'14): the suite's own seeded
   op generator, so the inputs a workload sees depend only on [--seed]. *)

type t = { mutable state : int64 }

let create ~seed ~stream =
  { state = Int64.(logxor (of_int seed) (mul (of_int (stream + 1)) 0x9E3779B97F4A7C15L)) }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Uniform in [0, bound). *)
let int t bound = Int64.(to_int (unsigned_rem (next t) (of_int bound)))

(* Uniform in [0, 1). *)
let float t = Int64.(to_float (shift_right_logical (next t) 11)) *. 0x1p-53
