(* txlint: static STM-discipline lint over the repo's OCaml sources.

   Usage:
     dune exec bin/txlint.exe -- [OPTIONS] [PATH ...]

   Options:
     --sarif FILE           also write a SARIF 2.1.0 log to FILE

   Paths default to lib, bin, examples and test; directories are walked
   recursively for *.ml files (fixtures/ subtrees are skipped — they
   exist to be deliberately dirty).  All files are analyzed together so
   the interprocedural checks see cross-file call chains.  A finding is
   suppressed only by a [@txlint.allow] annotation at its site.  Exit
   status: 0 clean, 1 findings, 2 parse/usage errors. *)

let default_roots = [ "lib"; "bin"; "examples"; "test" ]

let usage () =
  prerr_endline
    "usage: txlint [--sarif FILE] [PATH ...]";
  exit 2

let write_file file text =
  match Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text) with
  | () -> ()
  | exception Sys_error msg ->
    Printf.eprintf "txlint: %s\n" msg;
    exit 2

let () =
  let sarif = ref None in
  let paths = ref [] in
  let argv = Sys.argv and n = Array.length Sys.argv in
  let i = ref 1 in
  let next_arg opt =
    incr i;
    if !i >= n then begin
      Printf.eprintf "txlint: %s needs an argument\n" opt;
      usage ()
    end;
    argv.(!i)
  in
  while !i < n do
    (match argv.(!i) with
    | "--sarif" -> sarif := Some (next_arg "--sarif")
    | "--help" | "-h" -> usage ()
    | arg when String.length arg > 0 && arg.[0] = '-' ->
      Printf.eprintf "txlint: unknown option %s\n" arg;
      usage ()
    | p -> paths := p :: !paths);
    incr i
  done;
  let roots = if !paths = [] then default_roots else List.rev !paths in
  let files =
    List.concat_map
      (fun r ->
        if Sys.file_exists r && not (Sys.is_directory r) then [ r ]
        else Lint.ml_files_under [ r ])
      roots
  in
  if files = [] then begin
    Printf.eprintf "txlint: no .ml files under: %s\n"
      (String.concat " " roots);
    exit 2
  end;
  let findings, errors = Lint.lint_files files in
  (match !sarif with
  | Some file -> write_file file (Sarif.to_string findings)
  | None -> ());
  List.iter (fun f -> Format.printf "%a@." Lint.pp_finding f) findings;
  List.iter (Printf.eprintf "txlint: %s\n") errors;
  if errors <> [] then exit 2
  else if findings <> [] then begin
    Printf.eprintf "txlint: %d finding(s) in %d file(s)\n"
      (List.length findings) (List.length files);
    exit 1
  end
  else Printf.eprintf "txlint: clean (%d files)\n" (List.length files)
