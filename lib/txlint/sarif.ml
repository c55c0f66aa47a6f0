(* SARIF 2.1.0 emission for txlint findings — dependency-free, in the
   spirit of Harness.Report's hand-rolled JSON.  The subset GitHub code
   scanning consumes: tool.driver with a rule per check kind, one result
   per finding with ruleId, message and a physical location (1-based
   line/column).  Every distinct file appears once in the run-level
   [artifacts] array; each result's artifactLocation carries the
   artifact's [index] into that array so consumers can join results to
   artifacts without string-matching uris, and a [uriBaseId] resolved
   through the run's [originalUriBaseIds] (SRCROOT = the directory the
   lint ran from), which keeps the uris in results relative and
   machine-resolvable to absolute paths. *)

let schema_uri = "https://json.schemastore.org/sarif-2.1.0.json"
let version = "2.1.0"
let base_id = "SRCROOT"

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rule_json kind =
  Printf.sprintf
    {|{"id":"%s","shortDescription":{"text":"%s"}}|}
    (Lint.kind_name kind)
    (escape (Lint.kind_description kind))

(* Distinct finding files, in order of first appearance; the position in
   this list is the artifact index results refer to. *)
let artifact_files (findings : Lint.finding list) =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (f : Lint.finding) ->
      if Hashtbl.mem seen f.Lint.file then None
      else begin
        Hashtbl.replace seen f.Lint.file (Hashtbl.length seen);
        Some f.Lint.file
      end)
    findings

let artifact_json file =
  Printf.sprintf {|{"location":{"uri":"%s","uriBaseId":"%s"}}|}
    (escape file) base_id

(* "file:///abs/dir/" for the current directory, with a trailing slash so
   relative uris append cleanly. *)
let srcroot_uri () =
  let cwd = String.map (fun c -> if c = '\\' then '/' else c) (Sys.getcwd ()) in
  let cwd = if cwd <> "" && cwd.[String.length cwd - 1] = '/' then cwd else cwd ^ "/" in
  if String.length cwd > 0 && cwd.[0] = '/' then "file://" ^ cwd
  else "file:///" ^ cwd

let result_json ~index_of (f : Lint.finding) =
  (* SARIF columns are 1-based; finding columns are 0-based (compiler
     convention). *)
  Printf.sprintf
    {|{"ruleId":"%s","level":"error","message":{"text":"%s"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"%s","uriBaseId":"%s","index":%d},"region":{"startLine":%d,"startColumn":%d}}}]}|}
    (Lint.kind_name f.Lint.kind)
    (escape f.Lint.msg)
    (escape f.Lint.file)
    base_id
    (index_of f.Lint.file)
    f.Lint.line (f.Lint.col + 1)

let to_string (findings : Lint.finding list) =
  let rules = String.concat "," (List.map rule_json Lint.all_kinds) in
  let files = artifact_files findings in
  let index = Hashtbl.create 16 in
  List.iteri (fun i file -> Hashtbl.replace index file i) files;
  let index_of file = try Hashtbl.find index file with Not_found -> 0 in
  let artifacts = String.concat "," (List.map artifact_json files) in
  let results =
    String.concat ",\n      " (List.map (result_json ~index_of) findings)
  in
  Printf.sprintf
    {|{
  "$schema": "%s",
  "version": "%s",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "txlint",
          "version": "2.1.0",
          "rules": [%s]
        }
      },
      "originalUriBaseIds": {"%s": {"uri": "%s"}},
      "artifacts": [%s],
      "results": [%s]
    }
  ]
}
|}
    schema_uri version rules base_id
    (escape (srcroot_uri ()))
    artifacts results
