(* Static lint for STM discipline.  See lint.mli for the check catalogue
   and DESIGN.md §5e/§5i for the policy.

   v2 is interprocedural: the per-expression checks of v1 are joined by
   a repo-wide symbol index (Index), a best-effort call graph
   (Callgraph) and transitive effect summaries (Summary), so a helper
   that wraps [Tvar.peek] two calls away from an [atomic] body is
   flagged at the call site inside the transaction.  Suppression is
   attribute-based — [[@txlint.allow "<kind>" "<reason>"]] on an
   expression, a [let] binding, a module binding, or the whole file
   ([[@@@txlint.allow ...]]), which fully replaced the v1 path-suffix
   whitelists (retired after their one release of grace). *)

type kind =
  | Catch_all
  | Obj_magic
  | Stm_escape
  | Crash_swallowed
  | Tx_escape
  | Tx_swallow
  | Lock_release
  | Bad_allow

let all_kinds =
  [ Catch_all; Obj_magic; Stm_escape; Crash_swallowed; Tx_escape; Tx_swallow;
    Lock_release; Bad_allow ]

let kind_name = function
  | Catch_all -> "catch-all"
  | Obj_magic -> "obj-magic"
  | Stm_escape -> "stm-escape"
  | Crash_swallowed -> "crash-swallowed"
  | Tx_escape -> "tx-escape"
  | Tx_swallow -> "tx-swallow"
  | Lock_release -> "lock-release"
  | Bad_allow -> "bad-allow"

let kind_description = function
  | Catch_all ->
    "exception handler that swallows every exception without re-raising"
  | Obj_magic -> "unchecked cast (Obj.magic, Obj.obj) at an unannotated site"
  | Stm_escape ->
    "non-transactional escape hatch (peek/unsafe_write/unsafe_preload) \
     at an unannotated site"
  | Crash_swallowed ->
    "raise-at-point fault exception caught without re-raise"
  | Tx_escape ->
    "escape hatch transitively reachable from a transaction body"
  | Tx_swallow ->
    "abort/crash-swallowing helper transitively reachable from a \
     transaction body"
  | Lock_release ->
    "lock acquired without a Fun.protect or try-handler release in the \
     same function"
  | Bad_allow -> "malformed [@txlint.allow] suppression"

type finding = {
  file : string;
  line : int;
  col : int;
  kind : kind;
  msg : string;
}

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col
    (kind_name f.kind) f.msg

let escape_names = Summary.escape_names

(* --- suppression regions ([@txlint.allow "kind" "reason"]) ----------- *)

type region = {
  rg_kind : string;
  rg_from : int * int;  (* (line, col), inclusive *)
  rg_to : int * int;
}

let pos_of (p : Lexing.position) = (p.pos_lnum, p.pos_cnum - p.pos_bol)

let region_of_loc kind (loc : Location.t) =
  { rg_kind = kind; rg_from = pos_of loc.loc_start; rg_to = pos_of loc.loc_end }

let in_region r (line, col) =
  r.rg_from <= (line, col) && (line, col) <= r.rg_to

(* Payload forms accepted: two juxtaposed string constants
   ([@txlint.allow "stm-escape" "reason"]) or a two-string tuple.  A
   lone kind is rejected: every suppression must carry a reason. *)
let parse_allow_payload (p : Parsetree.payload) =
  let const_string (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> Some s
    | _ -> None
  in
  match p with
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
    match e.pexp_desc with
    | Pexp_apply (k, [ (Nolabel, r) ]) -> (
      match (const_string k, const_string r) with
      | Some k, Some r -> Ok (k, r)
      | _ -> Error "expected [@txlint.allow \"<kind>\" \"<reason>\"]")
    | Pexp_tuple [ k; r ] -> (
      match (const_string k, const_string r) with
      | Some k, Some r -> Ok (k, r)
      | _ -> Error "expected [@txlint.allow \"<kind>\" \"<reason>\"]")
    | Pexp_constant (Pconst_string _) ->
      Error "suppression must carry a reason string"
    | _ -> Error "expected [@txlint.allow \"<kind>\" \"<reason>\"]")
  | _ -> Error "expected [@txlint.allow \"<kind>\" \"<reason>\"]"

let suppressible_kind_names =
  List.filter_map
    (fun k -> if k = Bad_allow then None else Some (kind_name k))
    all_kinds

(* Collect allow regions and malformed-allow findings for one file.  A
   floating [[@@@txlint.allow ...]] covers everything from its position
   to the end of the file; attribute placements on expressions, value
   bindings and module bindings cover exactly that range. *)
let collect_allows ~file (str : Parsetree.structure) =
  let regions = ref [] and bad = ref [] in
  let add_bad (loc : Location.t) msg =
    let line, col = pos_of loc.loc_start in
    bad := { file; line; col; kind = Bad_allow; msg } :: !bad
  in
  let consider ~floating (a : Parsetree.attribute) range =
    if a.attr_name.txt = "txlint.allow" then
      match parse_allow_payload a.attr_payload with
      | Error msg -> add_bad a.attr_loc ("malformed txlint.allow: " ^ msg)
      | Ok (kind, reason) ->
        if not (List.mem kind suppressible_kind_names) then
          add_bad a.attr_loc
            (Printf.sprintf "malformed txlint.allow: unknown kind %S" kind)
        else if String.trim reason = "" then
          add_bad a.attr_loc
            "malformed txlint.allow: the reason string is empty"
        else
          let rg =
            if floating then
              { rg_kind = kind;
                rg_from = pos_of a.attr_loc.Location.loc_start;
                rg_to = (max_int, max_int) }
            else region_of_loc kind range
          in
          regions := rg :: !regions
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      structure_item =
        (fun self it ->
          (match it.pstr_desc with
          | Pstr_attribute a -> consider ~floating:true a it.pstr_loc
          | _ -> ());
          Ast_iterator.default_iterator.structure_item self it);
      expr =
        (fun self e ->
          List.iter
            (fun a -> consider ~floating:false a e.pexp_loc)
            e.pexp_attributes;
          Ast_iterator.default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          List.iter
            (fun a -> consider ~floating:false a vb.pvb_loc)
            vb.pvb_attributes;
          Ast_iterator.default_iterator.value_binding self vb);
      module_binding =
        (fun self mb ->
          List.iter
            (fun a -> consider ~floating:false a mb.pmb_loc)
            mb.pmb_attributes;
          Ast_iterator.default_iterator.module_binding self mb);
    }
  in
  iter.structure iter str;
  (!regions, !bad)

(* --- per-site checks (v1) -------------------------------------------- *)

let check_sites ~file (body : Parsetree.expression) =
  let findings = ref [] in
  let add (loc : Location.t) kind msg =
    let line, col = pos_of loc.loc_start in
    findings := { file; line; col; kind; msg } :: !findings
  in
  let check_case ~what (c : Parsetree.case) =
    let catch_all, crash = Callgraph.case_swallows ~what c in
    if catch_all then
      add c.pc_lhs.ppat_loc Catch_all
        "catch-all exception handler without re-raise swallows \
         Control.Abort_tx; match specific exceptions or re-raise";
    if crash then
      add c.pc_lhs.ppat_loc Crash_swallowed
        "handler swallows a raise-at-point fault (Control.Crashed / \
         Faults.Injected_failure); crash simulation needs these to \
         propagate - re-raise after cleanup"
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_try (_, cases) -> List.iter (check_case ~what:`Try) cases
          | Pexp_match (_, cases) -> List.iter (check_case ~what:`Match) cases
          | Pexp_ident
              { txt = Ldot (Lident "Obj", (("magic" | "obj") as cast)); loc }
            ->
            add loc Obj_magic
              (Printf.sprintf
                 "Obj.%s at an unannotated site; annotate a sanctioned \
                  cast with [@txlint.allow \"obj-magic\" \"<why>\"]"
                 cast)
          | Pexp_ident { txt = Ldot (_, name); loc }
            when List.mem name escape_names ->
            add loc Stm_escape
              (Printf.sprintf
                 "escape hatch %s at an unannotated site; reads and \
                  writes must go through a transaction (or annotate \
                  with [@txlint.allow \"stm-escape\" \"<why>\"])"
                 name)
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter body;
  List.rev !findings

(* --- interprocedural checks ------------------------------------------ *)

type interp = { idx : Index.t; sums : Summary.t }

(* A transaction entry point: any [atomic] application (every engine and
   the Stm_intf.S signature use the name). *)
let is_tx_entry path = List.nth path (List.length path - 1) = "atomic"

let last_nolabel_arg (args : (Asttypes.arg_label * Parsetree.expression) list)
    =
  List.fold_left
    (fun acc (lbl, e) ->
      match lbl with Asttypes.Nolabel -> Some e | _ -> acc)
    None args

(* Scan a transaction body for reachability violations: any mention that
   is, or transitively reaches, an escape hatch or an abort/crash
   swallowing handler.  Direct qualified escapes are also flagged here
   (distance 0): an annotated [peek] is sanctioned *outside*
   transactions only. *)
let scan_tx_body interp ~file ~scope (body : Parsetree.expression) =
  let findings = ref [] in
  let add (loc : Location.t) kind msg =
    let line, col = pos_of loc.loc_start in
    findings := { file; line; col; kind; msg } :: !findings
  in
  List.iter
    (fun (m : Callgraph.mention) ->
      let final = List.nth m.m_path (List.length m.m_path - 1) in
      let shown = Index.join m.m_path in
      if List.mem final escape_names && List.length m.m_path >= 2 then
        add m.m_loc Tx_escape
          (Printf.sprintf
             "escape hatch %s used inside a transaction body; \
              non-transactional reads/writes break opacity even when the \
              site is sanctioned for non-transactional use"
             shown)
      else if not (is_tx_entry m.m_path) then begin
        let targets =
          Callgraph.resolve interp.idx ~file ~scope m.m_path
        in
        let rec first_effect = function
          | [] -> ()
          | (g : Index.entry) :: rest ->
            let eff = Summary.get interp.sums g in
            let display = Index.join g.path in
            (match eff.Summary.escapes with
            | Some chain ->
              add m.m_loc Tx_escape
                (Printf.sprintf
                   "transaction body reaches an escape hatch: %s"
                   (Summary.chain_to_string display chain))
            | None -> ());
            (match eff.Summary.swallows_abort with
            | Some chain ->
              add m.m_loc Tx_swallow
                (Printf.sprintf
                   "transaction body reaches a catch-all handler that \
                    swallows Control.Abort_tx: %s"
                   (Summary.chain_to_string display chain))
            | None -> ());
            (match eff.Summary.swallows_crash with
            | Some chain ->
              add m.m_loc Tx_swallow
                (Printf.sprintf
                   "transaction body reaches a handler that swallows a \
                    raise-at-point fault: %s"
                   (Summary.chain_to_string display chain))
            | None -> ());
            if
              eff.Summary.escapes = None
              && eff.Summary.swallows_abort = None
              && eff.Summary.swallows_crash = None
            then first_effect rest
        in
        first_effect targets
      end)
    (Callgraph.mentions body);
  List.rev !findings

(* Find transaction entry applications in an entry body and scan their
   thunk arguments. *)
let check_tx_entries interp ~file ~scope (body : Parsetree.expression) =
  let findings = ref [] in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
            match Index.flatten_lid txt with
            | Some path when is_tx_entry path -> (
              match last_nolabel_arg args with
              | Some tx_body ->
                findings :=
                  List.rev_append
                    (List.rev (scan_tx_body interp ~file ~scope tx_body))
                    !findings
              | None -> ())
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter body;
  List.rev !findings

(* Lock-release safety (the static twin of the exception-safe-engine
   work, DESIGN.md §5h): a function that *directly* calls a lock-acquire
   primitive must contain a [Fun.protect] or a [try] whose handler
   mentions a release/undo/forget, or carry an annotation.  Transitive
   acquirers (callers of combinators) are exempt — their releases live
   with the acquire, which is what this check pins down; the soundness
   caveats are documented in DESIGN.md §5i. *)
let release_hints =
  [ "unlock"; "release"; "forget"; "undo"; "rollback"; "exit"; "restore";
    "clear" ]

let mentions_release (e : Parsetree.expression) =
  List.exists
    (fun (m : Callgraph.mention) ->
      let final = List.nth m.m_path (List.length m.m_path - 1) in
      List.exists
        (fun hint ->
          let lf = String.length final and lh = String.length hint in
          let rec at i =
            i + lh <= lf
            && (String.sub final i lh = hint || at (i + 1))
          in
          at 0)
        release_hints)
    (Callgraph.mentions e)

let check_lock_release ~file (body : Parsetree.expression) =
  let acquire_locs =
    List.filter_map
      (fun (m : Callgraph.mention) ->
        if Summary.is_acquire_path m.m_path then
          Some (m.m_loc, Index.join m.m_path)
        else None)
      (Callgraph.mentions body)
  in
  if acquire_locs = [] then []
  else begin
    let has_protect =
      List.exists
        (fun (m : Callgraph.mention) ->
          Summary.last2 m.m_path = [ "Fun"; "protect" ])
        (Callgraph.mentions body)
    in
    let has_try_release = ref false in
    let iter =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_try (_, cases) ->
              if
                List.exists
                  (fun (c : Parsetree.case) -> mentions_release c.pc_rhs)
                  cases
              then has_try_release := true
            | _ -> ());
            Ast_iterator.default_iterator.expr self e);
      }
    in
    iter.expr iter body;
    if has_protect || !has_try_release then []
    else
      List.map
        (fun (loc, shown) ->
          let line, col = pos_of loc.Location.loc_start in
          { file; line; col; kind = Lock_release;
            msg =
              Printf.sprintf
                "%s acquired without a Fun.protect or try-handler \
                 release in this function; pair every acquire with a \
                 release/undo/forget on all exception paths (or annotate \
                 with [@txlint.allow \"lock-release\" \"<why>\"])"
                shown })
        acquire_locs
  end

(* --- orchestration --------------------------------------------------- *)

let parse_source ~filename source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  match Parse.implementation lexbuf with
  | str -> Ok str
  | exception e -> (
    (* Only exceptions the compiler knows how to report are parse errors;
       anything else (Out_of_memory, a bug in this linter) propagates. *)
    match Location.error_of_exn e with
    | Some (`Ok report) ->
      Error
        (Printf.sprintf "%s: parse error: %s" filename
           (Format.asprintf "%a" Location.print_report report))
    | Some `Already_displayed -> Error (filename ^ ": parse error")
    | None -> raise e)

let compare_findings a b =
  compare
    (a.file, a.line, a.col, kind_name a.kind, a.msg)
    (b.file, b.line, b.col, kind_name b.kind, b.msg)

let analyze ?wrapper_of (sources : (string * string) list) :
    finding list * string list =
  (* Reverse-accumulate, reverse once: linear in the number of files and
     findings (the v1 fold appended per file, going quadratic on large
     trees). *)
  let parsed = ref [] and errors = ref [] in
  List.iter
    (fun (filename, text) ->
      match parse_source ~filename text with
      | Ok str -> parsed := (filename, str) :: !parsed
      | Error msg -> errors := msg :: !errors)
    sources;
  let parsed = List.rev !parsed in
  let idx = Index.build ?wrapper_of parsed in
  let sums = Summary.compute idx in
  let interp = { idx; sums } in
  let findings = ref [] in
  let push fs = findings := List.rev_append fs !findings in
  List.iter
    (fun (file, str) ->
      let regions, bad = collect_allows ~file str in
      let raw = ref [] in
      List.iter
        (fun (e : Index.entry) ->
          let scope = Summary.scope_of e in
          raw := List.rev_append (check_sites ~file e.body) !raw;
          raw :=
            List.rev_append (check_tx_entries interp ~file ~scope e.body) !raw;
          raw := List.rev_append (check_lock_release ~file e.body) !raw)
        (Index.entries_of_file idx file);
      let kept =
        List.filter
          (fun f ->
            f.kind = Bad_allow
            || not
                 (List.exists
                    (fun r ->
                      r.rg_kind = kind_name f.kind
                      && in_region r (f.line, f.col))
                    regions))
          !raw
      in
      push bad;
      push kept)
    parsed;
  (List.sort_uniq compare_findings !findings, List.rev !errors)

let lint_string ~filename source =
  match parse_source ~filename source with
  | Error msg -> Error msg
  | Ok _ ->
    let findings, _errors = analyze [ (filename, source) ] in
    Ok findings

let read_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | source -> Ok source
  | exception Sys_error msg -> Error msg

let lint_file file =
  match read_file file with
  | Error msg -> Error msg
  | Ok source -> lint_string ~filename:file source

(* Whole-set analysis: one parse per file, one shared call graph.  The
   result covers cross-file reachability that [lint_file] alone cannot
   see. *)
let lint_files files =
  let sources = ref [] and errors = ref [] in
  List.iter
    (fun file ->
      match read_file file with
      | Ok src -> sources := (file, src) :: !sources
      | Error msg -> errors := msg :: !errors)
    files;
  let findings, parse_errors = analyze (List.rev !sources) in
  (findings, List.rev_append !errors parse_errors)

let ml_files_under roots =
  let acc = ref [] in
  let rec walk path =
    match Sys.is_directory path with
    | true ->
      let base = Filename.basename path in
      if
        base <> "_build" && base <> "_opam" && base <> "fixtures"
        && not (String.length base > 1 && base.[0] = '.')
      then
        Array.iter
          (fun entry -> walk (Filename.concat path entry))
          (Sys.readdir path)
    | false ->
      if Filename.check_suffix path ".ml" then acc := path :: !acc
    | exception Sys_error _ -> ()
  in
  List.iter
    (fun root -> if Sys.file_exists root then walk root)
    roots;
  List.sort compare !acc
