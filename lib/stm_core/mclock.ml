external now_ns : unit -> (int64[@unboxed])
  = "stm_mclock_now_ns_bytecode" "stm_mclock_now_ns_native"
  [@@noalloc]

let elapsed_ns t0 = Int64.to_int (Int64.sub (now_ns ()) t0)
let elapsed_ms ~t0 ~t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
