(* Order statistics over float samples.  Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), so the
   spreads printed here are the ones a reader recomputes from the raw
   trials in the JSON report. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* (q1, q3); both the single value when fewer than two samples. *)
let quartiles xs =
  match sorted xs with
  | [] -> (nan, nan)
  | [ x ] -> (x, x)
  | s ->
    let d = Array.of_list s in
    let ld = Array.length d in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let rel_iqr xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)
