(* The static STM-discipline lint (lib/txlint), v2: per-site checks,
   the interprocedural pass (index / call graph / effect summaries),
   attribute suppression and SARIF output.

   In-memory fixtures go through [Lint.lint_string] (single-unit, the
   v1 analysis mode) or [Lint.analyze] with a trivial [wrapper_of];
   the committed fixture pair under test/fixtures/txlint is read from
   the source tree and proves the v2 pass strictly stronger than v1. *)

let findings = Alcotest.testable Lint.pp_finding ( = )
let no_wrap = fun _ -> None

let lint ?(filename = "lib/somewhere/code.ml") src =
  match Lint.lint_string ~filename src with
  | Ok fs -> fs
  | Error e -> Alcotest.failf "fixture did not parse: %s" e

let analyze sources = fst (Lint.analyze ~wrapper_of:no_wrap sources)
let has kind fs = List.exists (fun f -> f.Lint.kind = kind) fs
let count kind fs = List.length (List.filter (fun f -> f.Lint.kind = kind) fs)

(* --- per-site checks (v1 heritage) ----------------------------------- *)

let test_catch_all_flagged () =
  match lint "let f x = try x () with _ -> ()" with
  | [ f ] ->
    Alcotest.(check bool) "kind" true (f.Lint.kind = Lint.Catch_all);
    Alcotest.(check int) "line" 1 f.Lint.line;
    Alcotest.(check string) "stable kind name" "catch-all"
      (Lint.kind_name f.Lint.kind)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_catch_all_variants () =
  let flagged src = has Lint.Catch_all (lint src) in
  Alcotest.(check bool) "with e -> log" true
    (flagged "let f x = try x () with e -> ignore e");
  Alcotest.(check bool) "match exception _ ->" true
    (flagged "let f x = match x () with v -> v | exception _ -> 0");
  Alcotest.(check bool) "or-pattern hiding a catch-all" true
    (flagged "let f x = try x () with Not_found | _ -> 0");
  Alcotest.(check bool) "specific exception ok" false
    (flagged "let f x = try x () with Not_found -> 0");
  Alcotest.(check bool) "re-raise ok" false
    (flagged "let f x = try x () with e -> cleanup (); raise e");
  Alcotest.(check bool) "qualified abort_tx ok" false
    (flagged "let f x = try x () with _ -> Control.abort_tx Explicit");
  Alcotest.(check bool) "failwith ok" false
    (flagged "let f x = try x () with e -> failwith (Printexc.to_string e)");
  Alcotest.(check bool) "guarded handler ok" false
    (flagged "let f x = try x () with e when e = Not_found -> 0")

(* The re-raiser allowlist is *named*: lookalike [fail]/[failf] from
   arbitrary modules and bare [exit] no longer count as re-raising. *)
let test_reraise_allowlist_tightened () =
  let flagged src = has Lint.Catch_all (lint src) in
  Alcotest.(check bool) "Log.fail is not a raiser" true
    (flagged "let f x = try x () with _ -> Log.fail \"boom\"");
  Alcotest.(check bool) "My.failf is not a raiser" true
    (flagged "let f x = try x () with _ -> My.failf \"%d\" 3");
  Alcotest.(check bool) "Lwt.fail is not a raiser" true
    (flagged "let f x = try x () with _ -> Lwt.fail Not_found");
  Alcotest.(check bool) "exit is not a raiser" true
    (flagged "let f x = try x () with _ -> exit 1");
  Alcotest.(check bool) "Alcotest.fail accepted" false
    (flagged "let f x = try x () with _ -> Alcotest.fail \"boom\"");
  Alcotest.(check bool) "Alcotest.failf accepted" false
    (flagged "let f x = try x () with _ -> Alcotest.failf \"%d\" 3");
  Alcotest.(check bool) "Stdlib.raise accepted" false
    (flagged "let f x = try x () with e -> Stdlib.raise e");
  Alcotest.(check bool) "invalid_arg accepted" false
    (flagged "let f x = try x () with _ -> invalid_arg \"f\"");
  Alcotest.(check bool) "assert accepted" false
    (flagged "let f x = try x () with _ -> assert false")

let test_obj_magic () =
  Alcotest.(check bool) "flagged" true
    (has Lint.Obj_magic (lint "let f (x : int) : string = Obj.magic x"));
  Alcotest.(check (list findings)) "annotated site clean" []
    (lint
       "let f (x : int) : string = (Obj.magic x [@txlint.allow \
        \"obj-magic\" \"test fixture\"])")

(* [Obj.obj] is the same unchecked cast as [Obj.magic], spelled for an
   [Obj.t]: the check covers both. *)
let test_obj_obj () =
  Alcotest.(check bool) "flagged" true
    (has Lint.Obj_magic (lint "let f (o : Obj.t) : string = Obj.obj o"));
  Alcotest.(check bool) "Obj.repr is not a cast to check" false
    (has Lint.Obj_magic (lint "let f (x : int) = Obj.repr x"));
  Alcotest.(check (list findings)) "annotated site clean" []
    (lint
       "let f (o : Obj.t) : string = (Obj.obj o [@txlint.allow \
        \"obj-magic\" \"test fixture\"])")

let test_stm_escape () =
  let src = "let f tv = Stm_core.Tvar.unsafe_write tv 1" in
  Alcotest.(check bool) "unsafe_write flagged" true
    (has Lint.Stm_escape (lint src));
  Alcotest.(check bool) "peek flagged" true
    (has Lint.Stm_escape (lint "let f tv = S.peek tv"));
  Alcotest.(check bool) "peek_opt not an escape name" false
    (has Lint.Stm_escape (lint "let f tv = S.peek_opt tv"))

let test_crash_swallowed () =
  let flagged src = has Lint.Crash_swallowed (lint src) in
  Alcotest.(check bool) "Control.Crashed swallowed" true
    (flagged "let f x = try x () with Control.Crashed -> ()");
  Alcotest.(check bool) "Faults.Injected_failure swallowed" true
    (flagged "let f x = try x () with Faults.Injected_failure -> 0");
  Alcotest.(check bool) "match-exception form" true
    (flagged
       "let f x = match x () with v -> v | exception Control.Crashed -> 0");
  Alcotest.(check bool) "hidden in an or-pattern" true
    (flagged "let f x = try x () with Not_found | Control.Crashed -> 0");
  Alcotest.(check bool) "unqualified constructor still caught" true
    (flagged "let f x = try x () with Crashed -> ()");
  Alcotest.(check bool) "cleanup-then-reraise ok" false
    (flagged
       "let f x = try x () with Control.Crashed as e -> cleanup (); raise e");
  Alcotest.(check bool) "guarded handler ok" false
    (flagged "let f x = try x () with Control.Crashed when debug -> 0");
  Alcotest.(check bool) "unrelated exception ok" false
    (flagged "let f x = try x () with Not_found -> 0")

let test_parse_error_reported () =
  match Lint.lint_string ~filename:"broken.ml" "let = (" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
    Alcotest.(check bool) "names the file" true
      (String.length msg >= 6 && String.sub msg 0 6 = "broken")

(* --- suppression annotations ----------------------------------------- *)

let test_allow_placements () =
  Alcotest.(check (list findings)) "expression annotation" []
    (lint
       "let f tv = (S.peek tv [@txlint.allow \"stm-escape\" \"test\"])");
  Alcotest.(check (list findings)) "binding annotation" []
    (lint "let f tv = S.peek tv [@@txlint.allow \"stm-escape\" \"test\"]");
  Alcotest.(check (list findings)) "floating file-level annotation" []
    (lint
       "[@@@txlint.allow \"stm-escape\" \"test\"]\nlet f tv = S.peek tv");
  (* A floating annotation only covers what follows it. *)
  Alcotest.(check bool) "floating does not reach backwards" true
    (has Lint.Stm_escape
       (lint
          "let f tv = S.peek tv\n\
           [@@@txlint.allow \"stm-escape\" \"test\"]\n\
           let g tv = S.peek tv"))

let test_allow_is_kind_specific () =
  let fs =
    lint "let f tv = (S.peek tv [@txlint.allow \"obj-magic\" \"wrong\"])"
  in
  Alcotest.(check bool) "wrong kind does not suppress" true
    (has Lint.Stm_escape fs)

let test_bad_allow () =
  let fs = lint "let f tv = (S.peek tv [@txlint.allow \"stm-escape\"])" in
  Alcotest.(check bool) "missing reason reported" true
    (has Lint.Bad_allow fs);
  Alcotest.(check bool) "invalid allow does not suppress" true
    (has Lint.Stm_escape fs);
  Alcotest.(check bool) "unknown kind reported" true
    (has Lint.Bad_allow
       (lint "let f x = (g x [@txlint.allow \"bogus\" \"reason\"])"));
  Alcotest.(check bool) "empty reason reported" true
    (has Lint.Bad_allow
       (lint "let f tv = (S.peek tv [@txlint.allow \"stm-escape\" \"\"])"))

(* The v1 path-suffix whitelists are fully retired: a formerly
   whitelisted path gets no special treatment — only a site annotation
   suppresses. *)
let test_whitelists_retired () =
  let src = "let f tv = S.peek tv" in
  (match Lint.lint_string ~filename:"lib/harness/target.ml" src with
  | Ok fs ->
    Alcotest.(check bool) "formerly whitelisted path is flagged" true
      (has Lint.Stm_escape fs)
  | Error e -> Alcotest.failf "parse: %s" e);
  match
    Lint.lint_string ~filename:"lib/harness/target.ml"
      "let f tv = (S.peek tv [@txlint.allow \"stm-escape\" \"test\"])"
  with
  | Ok fs ->
    Alcotest.(check bool) "annotation still suppresses there" false
      (has Lint.Stm_escape fs)
  | Error e -> Alcotest.failf "parse: %s" e

(* --- interprocedural pass -------------------------------------------- *)

let test_tx_escape_direct () =
  let fs = lint "let f stm tv = atomic (fun _ctx -> S.peek tv)" in
  Alcotest.(check bool) "direct escape inside atomic" true
    (has Lint.Tx_escape fs)

let test_tx_swallow_via_helper () =
  let fs =
    analyze
      [ ( "lib/x/mem_swallow.ml",
          "let quiet f = try f () with _ -> 0\n\
           let go tv = atomic (fun ctx -> quiet (fun () -> read ctx tv))" )
      ]
  in
  Alcotest.(check bool) "helper's catch-all flagged per-site" true
    (has Lint.Catch_all fs);
  Alcotest.(check bool) "reachability flagged in the tx body" true
    (has Lint.Tx_swallow fs);
  (* The witness chain names the helper. *)
  Alcotest.(check bool) "chain names the helper" true
    (List.exists
       (fun f ->
         f.Lint.kind = Lint.Tx_swallow
         &&
         let msg = f.Lint.msg in
         let has_sub s =
           let ls = String.length s and lm = String.length msg in
           let rec at i = i + ls <= lm && (String.sub msg i ls = s || at (i + 1)) in
           at 0
         in
         has_sub "quiet")
       fs)

(* Calling [atomic] (or a function that runs its own transaction) from
   inside a transaction body is composition, not an escape: the engine's
   commit machinery behind the entry point must not leak into caller
   summaries. *)
let test_entry_points_are_barriers () =
  let fs =
    analyze
      [ ( "lib/x/mem_barrier.ml",
          "let op tv = atomic (fun _ -> write tv 1)\n\
           let compose tv = atomic (fun _ -> op tv)" ) ]
  in
  Alcotest.(check (list findings)) "composition is clean" [] fs

let test_lock_release_pair_in_memory () =
  let fs =
    analyze
      [ ( "lib/x/mem_locks.ml",
          "let leaky l ~owner = if Vlock.try_lock l ~owner then f l\n\
           let guarded l ~owner =\n\
          \  if Vlock.try_lock l ~owner then\n\
          \    Fun.protect ~finally:(fun () -> Vlock.unlock l) (fun () -> f l)\n\
           let handled l ~owner =\n\
          \  if Vlock.try_lock l ~owner then\n\
          \    try f l with e -> Vlock.unlock l; raise e\n\
           else ()" ) ]
  in
  Alcotest.(check int) "exactly the leaky acquire flagged" 1
    (count Lint.Lock_release fs);
  match List.filter (fun f -> f.Lint.kind = Lint.Lock_release) fs with
  | [ f ] -> Alcotest.(check int) "on the leaky line" 1 f.Lint.line
  | _ -> Alcotest.fail "expected one lock-release finding"

(* --- the committed fixture pair: v2 strictly stronger than v1 -------- *)

let find_root () =
  let rec go dir =
    if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lib")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else go parent
  in
  go (Sys.getcwd ())

let fixture_files root =
  let dir = List.fold_left Filename.concat root [ "test"; "fixtures"; "txlint" ] in
  List.map (Filename.concat dir)
    [ "fixture_helpers.ml"; "fixture_use.ml"; "fixture_locks.ml" ]

let v1_kinds =
  [ Lint.Catch_all; Lint.Obj_magic; Lint.Stm_escape; Lint.Crash_swallowed ]

let test_fixture_pair_v1_clean_v2_flagged () =
  match find_root () with
  | None -> Alcotest.fail "could not locate the source tree"
  | Some root ->
    let files = fixture_files root in
    List.iter
      (fun f ->
        Alcotest.(check bool) (f ^ " exists") true (Sys.file_exists f))
      files;
    (* v1 mode: each file alone, v1 kinds only — provably clean. *)
    List.iter
      (fun file ->
        match Lint.lint_file file with
        | Error e -> Alcotest.failf "fixture parse: %s" e
        | Ok fs ->
          let v1 = List.filter (fun f -> List.mem f.Lint.kind v1_kinds) fs in
          Alcotest.(check (list findings))
            (Filename.basename file ^ " is v1-clean") [] v1)
      files;
    (* v2: the pair analyzed together. *)
    let fs, errors = Lint.lint_files files in
    Alcotest.(check (list Alcotest.string)) "no parse errors" [] errors;
    let in_file name k =
      List.filter
        (fun f -> f.Lint.kind = k && Filename.basename f.Lint.file = name)
        fs
    in
    (* direct_wrap, two_deep (helper two calls deep) and the
       mutually-recursive pair: three flagged tx bodies. *)
    Alcotest.(check int) "three tx-escapes in fixture_use" 3
      (List.length (in_file "fixture_use.ml" Lint.Tx_escape));
    Alcotest.(check int) "annotated helpers stay clean" 0
      (List.length (in_file "fixture_helpers.ml" Lint.Tx_escape));
    Alcotest.(check int) "leaky acquire flagged" 1
      (List.length (in_file "fixture_locks.ml" Lint.Lock_release));
    (* The two-deep chain names both hops. *)
    let two_deep =
      List.exists
        (fun f ->
          f.Lint.kind = Lint.Tx_escape
          &&
          let msg = f.Lint.msg in
          let has_sub s =
            let ls = String.length s and lm = String.length msg in
            let rec at i =
              i + ls <= lm && (String.sub msg i ls = s || at (i + 1))
            in
            at 0
          in
          has_sub "snapshot" && has_sub "read_raw")
        fs
    in
    Alcotest.(check bool) "witness chain shows both hops" true two_deep

(* --- SARIF ------------------------------------------------------------ *)

let test_sarif_minimum_schema () =
  let fs =
    analyze [ ("lib/x/mem_sarif.ml", "let f tv = S.peek tv") ]
  in
  Alcotest.(check int) "one finding to serialize" 1 (List.length fs);
  let module R = Harness.Report in
  match R.of_string (Sarif.to_string fs) with
  | Error e -> Alcotest.failf "SARIF output is not valid JSON: %s" e
  | Ok json ->
    let str_member k j =
      match R.member k j with Some (R.Str s) -> s | _ -> ""
    in
    Alcotest.(check string) "version" "2.1.0" (str_member "version" json);
    Alcotest.(check bool) "$schema points at SARIF 2.1.0" true
      (str_member "$schema" json
       = "https://json.schemastore.org/sarif-2.1.0.json");
    let run =
      match R.member "runs" json with
      | Some (R.List [ r ]) -> r
      | _ -> Alcotest.fail "expected exactly one run"
    in
    let driver =
      match R.member "tool" run with
      | Some t -> (
        match R.member "driver" t with
        | Some d -> d
        | None -> Alcotest.fail "missing tool.driver")
      | None -> Alcotest.fail "missing tool"
    in
    Alcotest.(check string) "driver name" "txlint"
      (str_member "name" driver);
    (match R.member "rules" driver with
    | Some (R.List rules) ->
      Alcotest.(check int) "one rule per kind"
        (List.length Lint.all_kinds) (List.length rules)
    | _ -> Alcotest.fail "missing driver.rules");
    (* Run-level artifact index: one entry per distinct file, resolvable
       to an absolute path through originalUriBaseIds. *)
    (match R.member "originalUriBaseIds" run with
    | Some bases -> (
      match R.member "SRCROOT" bases with
      | Some b ->
        let uri = str_member "uri" b in
        Alcotest.(check bool) "SRCROOT is a file uri" true
          (String.length uri > 8 && String.sub uri 0 7 = "file://");
        Alcotest.(check bool) "SRCROOT ends with a slash" true
          (uri.[String.length uri - 1] = '/')
      | None -> Alcotest.fail "missing originalUriBaseIds.SRCROOT")
    | None -> Alcotest.fail "missing originalUriBaseIds");
    (match R.member "artifacts" run with
    | Some (R.List [ a ]) ->
      (match R.member "location" a with
      | Some l ->
        Alcotest.(check string) "artifact location uri" "lib/x/mem_sarif.ml"
          (str_member "uri" l);
        Alcotest.(check string) "artifact uriBaseId" "SRCROOT"
          (str_member "uriBaseId" l)
      | None -> Alcotest.fail "missing artifact.location")
    | _ -> Alcotest.fail "expected exactly one artifact");
    (match R.member "results" run with
    | Some (R.List [ result ]) -> (
      Alcotest.(check string) "ruleId" "stm-escape"
        (str_member "ruleId" result);
      Alcotest.(check bool) "message text present" true
        (match R.member "message" result with
        | Some m -> str_member "text" m <> ""
        | None -> false);
      match R.member "locations" result with
      | Some (R.List [ loc ]) -> (
        match R.member "physicalLocation" loc with
        | Some pl ->
          (match R.member "artifactLocation" pl with
          | Some a ->
            let int_member k j =
              match R.member k j with Some (R.Int i) -> i | _ -> -1
            in
            Alcotest.(check string) "artifact uri" "lib/x/mem_sarif.ml"
              (str_member "uri" a);
            Alcotest.(check string) "result uriBaseId" "SRCROOT"
              (str_member "uriBaseId" a);
            Alcotest.(check int) "index into run.artifacts" 0
              (int_member "index" a)
          | None -> Alcotest.fail "missing artifactLocation");
          (match R.member "region" pl with
          | Some rg ->
            let int_member k j =
              match R.member k j with Some (R.Int i) -> i | _ -> -1
            in
            Alcotest.(check int) "startLine 1-based" 1
              (int_member "startLine" rg);
            Alcotest.(check bool) "startColumn 1-based" true
              (int_member "startColumn" rg >= 1)
          | None -> Alcotest.fail "missing region")
        | None -> Alcotest.fail "missing physicalLocation")
      | _ -> Alcotest.fail "expected one location")
    | _ -> Alcotest.fail "expected exactly one result")

(* --- the repo itself -------------------------------------------------- *)

let test_fixture_dirs_skipped () =
  match find_root () with
  | None -> Alcotest.fail "could not locate the source tree"
  | Some root ->
    let files = Lint.ml_files_under [ Filename.concat root "test" ] in
    Alcotest.(check bool) "fixtures are not walked" false
      (List.exists
         (fun f ->
           List.mem "fixtures" (String.split_on_char '/' f))
         files)

(* The whole repository — lib, bin, examples and test — must lint clean
   under every v2 check, with annotations (each carrying a reason) at
   the sanctioned sites. *)
let test_repo_is_clean () =
  match find_root () with
  | None -> Alcotest.fail "could not locate the source tree"
  | Some root ->
    let roots =
      List.filter Sys.file_exists
        (List.map (Filename.concat root) [ "lib"; "bin"; "examples"; "test" ])
    in
    let files = Lint.ml_files_under roots in
    Alcotest.(check bool) "found the repo sources" true
      (List.length files > 40);
    let fs, errors = Lint.lint_files files in
    Alcotest.(check (list findings)) "no findings on the repo" [] fs;
    Alcotest.(check (list Alcotest.string)) "no parse errors" [] errors

let suite =
  [ Alcotest.test_case "catch-all flagged" `Quick test_catch_all_flagged;
    Alcotest.test_case "catch-all variants" `Quick test_catch_all_variants;
    Alcotest.test_case "re-raiser allowlist tightened" `Quick
      test_reraise_allowlist_tightened;
    Alcotest.test_case "Obj.magic outside annotation" `Quick test_obj_magic;
    Alcotest.test_case "Obj.obj outside annotation" `Quick test_obj_obj;
    Alcotest.test_case "escape hatches flagged" `Quick test_stm_escape;
    Alcotest.test_case "crash-fault swallowing flagged" `Quick
      test_crash_swallowed;
    Alcotest.test_case "parse errors reported" `Quick
      test_parse_error_reported;
    Alcotest.test_case "allow placements" `Quick test_allow_placements;
    Alcotest.test_case "allow is kind-specific" `Quick
      test_allow_is_kind_specific;
    Alcotest.test_case "malformed allows reported" `Quick test_bad_allow;
    Alcotest.test_case "path whitelists retired" `Quick
      test_whitelists_retired;
    Alcotest.test_case "tx-escape direct" `Quick test_tx_escape_direct;
    Alcotest.test_case "tx-swallow via helper" `Quick
      test_tx_swallow_via_helper;
    Alcotest.test_case "entry points are barriers" `Quick
      test_entry_points_are_barriers;
    Alcotest.test_case "lock-release pair" `Quick
      test_lock_release_pair_in_memory;
    Alcotest.test_case "fixture pair: v1 clean, v2 flagged" `Quick
      test_fixture_pair_v1_clean_v2_flagged;
    Alcotest.test_case "SARIF minimum schema" `Quick
      test_sarif_minimum_schema;
    Alcotest.test_case "fixture dirs skipped" `Quick
      test_fixture_dirs_skipped;
    Alcotest.test_case "repo lints clean" `Quick test_repo_is_clean ]
