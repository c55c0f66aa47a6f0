(* Span buffers for the traced run, and their export as Chrome trace-event
   JSON (load the file in Perfetto or chrome://tracing).

   A worker records one span per op and one child span per commit-hook
   call into preallocated arrays; a full buffer counts what it drops
   instead of growing.  Only the first [keep] spans of each buffer are
   retained for the file, so a long traced run stays a few MiB. *)

let cap = 1 lsl 18
let keep = 4096
let hook_kind = -1

type buf = {
  kind : int array;  (** the encoded op, or [hook_kind] *)
  t0 : int array;
  t1 : int array;
  op : int array;  (** op id; a hook span's parent *)
  mutable n : int;
  mutable dropped : int;
}

let create () =
  { kind = Array.make cap 0; t0 = Array.make cap 0; t1 = Array.make cap 0;
    op = Array.make cap 0; n = 0; dropped = 0 }

let push b ~kind ~t0 ~t1 ~op =
  let i = b.n in
  if i < cap then begin
    b.kind.(i) <- kind;
    b.t0.(i) <- t0;
    b.t1.(i) <- t1;
    b.op.(i) <- op;
    b.n <- i + 1
  end
  else b.dropped <- b.dropped + 1

(* What survives a trial: the first [keep] spans of one worker. *)
type kept = {
  workload : string;
  engine : string;
  worker : int;
  origin : int;  (** window start, ns *)
  name_of : int -> string;
  spans : (int * int * int * int) array;  (** kind, t0, t1, op *)
}

let retain b ~workload ~engine ~worker ~origin ~name_of =
  let n = min b.n keep in
  { workload; engine; worker; origin; name_of;
    spans = Array.init n (fun i -> (b.kind.(i), b.t0.(i), b.t1.(i), b.op.(i))) }

let write_chrome file (streams : kept list) =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let first = ref true in
  let event fmt =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc fmt
  in
  output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  List.iteri
    (fun tid k ->
      event "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": %d, \"args\": {\"name\": \"%s/%s/w%d\"}}"
        tid k.workload k.engine k.worker;
      Array.iter
        (fun (kind, t0, t1, op) ->
          let us t = float_of_int (t - k.origin) /. 1e3 in
          if kind = hook_kind then
            event "{\"ph\": \"X\", \"name\": \"commit_hook\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent_op\": %d}}"
              tid (us t0) (us t1 -. us t0) op
          else
            event "{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %d}}"
              (k.name_of kind) tid (us t0) (us t1 -. us t0) op)
        k.spans)
    streams;
  output_string oc "\n]}\n"
