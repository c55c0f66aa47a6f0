(* BENCHMARK.json at the repository root: the metric names, units,
   directions and regression bounds every report is checked against. *)

module J = Harness.Report

type metric = {
  name : string;
  unit : string;
  higher_is_better : bool;
  bound : float;  (** nan for per-layer metrics, which have none *)
}

type t = { end_to_end : metric list; per_layer : metric list }

(* From the working directory up: a checkout root, or the build-tree copy
   under [dune runtest] (two levels above bench/suite). *)
let find () =
  let rec go dir n =
    let f = Filename.concat dir "BENCHMARK.json" in
    if Sys.file_exists f then Some f
    else if n = 0 then None
    else go (Filename.dirname dir) (n - 1)
  in
  go (Sys.getcwd ()) 4

let read_file f =
  let ic = open_in_bin f in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let ( let* ) = Result.bind

let str = function J.Str s -> Ok s | _ -> Error "expected a string"

let num = function
  | J.Int i -> Ok (float_of_int i)
  | J.Float f -> Ok f
  | _ -> Error "expected a number"

let field j k conv =
  match J.member k j with
  | Some v -> Result.map_error (fun e -> k ^ ": " ^ e) (conv v)
  | None -> Error ("missing " ^ k)

let metric ~with_bound j =
  let* name = field j "name" str in
  let* unit = field j "unit" str in
  let* better = field j "better" str in
  let* bound = if with_bound then field j "bound" num else Ok nan in
  Ok { name; unit; higher_is_better = better = "higher"; bound }

let metrics ~with_bound j key =
  match J.member key j with
  | Some (J.List l) ->
    List.fold_right
      (fun m acc ->
        let* acc = acc in
        let* m = metric ~with_bound m in
        Ok (m :: acc))
      l (Ok [])
  | _ -> Error ("missing " ^ key)

let load () =
  match find () with
  | None -> Error "BENCHMARK.json not found in the working directory or above it"
  | Some f ->
    let* j = J.of_string (read_file f) in
    let* end_to_end = metrics ~with_bound:true j "end_to_end" in
    let* per_layer = metrics ~with_bound:false j "per_layer" in
    Ok { end_to_end; per_layer }
