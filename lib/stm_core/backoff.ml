type t = {
  mutable window : int;
  mutable rng : int;  (* xorshift64 state *)
}

let max_window = 1 lsl 14

let create ?(seed = 0) () =
  { window = 16; rng = (seed lxor 0x1E3779B97F4A7C15) lor 1 }

let window t = t.window

let next_rand t =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- x;
  x land max_int

let once t =
  let spins = next_rand t mod t.window in
  if Option.is_none Runtime.plane.sim then
    for _ = 1 to spins do
      Domain.cpu_relax ()
    done;
  (* Let the deterministic scheduler reschedule instead of spinning. *)
  Runtime.schedule_point ();
  if t.window < max_window then t.window <- t.window * 2
