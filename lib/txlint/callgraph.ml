(* Call extraction and best-effort resolution over the symbol index, plus
   the shared AST predicates the checks are built from (catch-all
   patterns, crash patterns, the re-raiser allowlist).

   Resolution is deliberately conservative in both directions
   (DESIGN.md §5i): a mention that cannot be resolved contributes no
   edge — unless its final name is itself one of the dangerous
   primitives (escape hatches, lock acquires), in which case the
   *caller's* local scan already treats it as the effect.  Passing a
   function as a value counts as a call: every [Pexp_ident] mention in a
   body is an edge candidate, so storing a closure that escapes and
   invoking it later are the same to the summary fixpoint. *)

type mention = { m_path : string list; m_loc : Location.t }

(* Every identifier mention in an expression, in source order.  Field
   projections, record labels and constructors are not [Pexp_ident]s, so
   [Tvar.value <- ...] does not count as a call to [Tvar]. *)
let mentions (body : Parsetree.expression) : mention list =
  let acc = ref [] in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } -> (
            match Index.flatten_lid txt with
            | Some p -> acc := { m_path = p; m_loc = loc } :: !acc
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter body;
  List.rev !acc

(* --- resolution ------------------------------------------------------- *)

let rec drop_prefixes = function
  | [] | [ _ ] -> []
  | p -> p :: drop_prefixes (List.tl p)

let rec prefixes = function
  | [] -> [ [] ]
  | _ :: _ as p ->
    p :: prefixes (List.rev (List.tl (List.rev p)))

(* Resolve a mention to index entries.  [scope] is the module path of
   the body the mention appears in (entry path minus the value name);
   [file] supplies the opened modules.  Fuel bounds alias chains, so a
   cyclic alias pair resolves to nothing instead of looping. *)
let resolve (idx : Index.t) ~file ~scope (path : string list) :
    Index.entry list =
  let rec go fuel ~file ~scope path =
    if fuel <= 0 || path = [] then []
    else
      let direct =
        match path with
        | [ n ] ->
          (* Bare name: innermost enclosing module first, then the
             file's opens, then any same-file entry of that name
             (nested modules the scope walk cannot see). *)
          let rec first = function
            | [] -> []
            | sc :: rest -> (
              match Index.find_key idx (Index.join (sc @ [ n ])) with
              | [] -> first rest
              | ids -> ids)
          in
          let ids = first (prefixes scope) in
          let ids =
            if ids <> [] then ids
            else
              List.concat_map
                (fun o -> Index.find_key idx (Index.join (o @ [ n ])))
                (Index.opens_of_file idx file)
          in
          if ids <> [] then ids
          else
            List.filter_map
              (fun (e : Index.entry) ->
                if e.name = n && not e.anon then Some e.id else None)
              (Index.entries_of_file idx file)
        | _ -> (
          (* Qualified: exact key, else progressively drop leading
             components ("Stm_core.Runtime.Serial.enter" ->
             "Serial.enter"). *)
          match
            List.concat_map
              (fun p -> Index.find_key idx (Index.join p))
              (drop_prefixes path)
          with
          | [] -> []
          | ids -> ids)
      in
      if direct <> [] then
        List.map (Index.entry idx)
          (List.sort_uniq compare direct)
      else
        (* Alias step: expand the head component(s) of the path through
           recorded module aliases, preferring an alias declared in the
           current scope; the target re-resolves in the scope the alias
           was declared in ([Make] inside [Classic_stm]). *)
        match path with
        | [] | [ _ ] -> []
        | head :: rest ->
          let alias_of k =
            let rec first = function
              | [] -> Hashtbl.find_opt idx.Index.aliases k
              | sc :: tl -> (
                match
                  Hashtbl.find_opt idx.Index.aliases
                    (Index.join (sc @ [ k ]))
                with
                | Some a -> Some a
                | None -> first tl)
            in
            first (prefixes scope)
          in
          let two =
            match rest with
            | r1 :: r2 ->
              Option.map
                (fun a -> (a, r2))
                (alias_of (Index.join [ head; r1 ]))
            | [] -> None
          in
          let one = Option.map (fun a -> (a, rest)) (alias_of head) in
          (match (two, one) with
          | Some (a, tail), _ | None, Some (a, tail) ->
            go (fuel - 1) ~file:a.Index.a_file ~scope:a.Index.a_scope
              (a.Index.a_target @ tail)
          | None, None -> [])
  in
  go 8 ~file ~scope path

(* --- shared AST predicates ------------------------------------------- *)

(* A pattern that matches every exception: _, a variable, or built from
   such by alias/or/constraint/open. *)
let rec pattern_is_catch_all (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p) ->
    pattern_is_catch_all p
  | Ppat_or (a, b) -> pattern_is_catch_all a || pattern_is_catch_all b
  | _ -> false

(* A pattern naming one of the raise-at-point fault exceptions
   ([Control.Crashed], [Faults.Injected_failure]).  Handlers matching
   these without re-raising defeat the crash simulation: engines rely on
   the exception unwinding all the way out so orphaned locks stay
   orphaned. *)
let crash_exn_names = [ "Crashed"; "Injected_failure" ]

let rec pattern_mentions_crash (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> (
    match txt with
    | Lident n | Ldot (_, n) -> List.mem n crash_exn_names
    | _ -> false)
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p)
  | Ppat_exception p ->
    pattern_mentions_crash p
  | Ppat_or (a, b) -> pattern_mentions_crash a || pattern_mentions_crash b
  | _ -> false

(* Does the handler body syntactically re-raise?  The accepted raisers
   are a *named* allowlist: the stdlib raisers (bare or [Stdlib.]-
   qualified), this repo's [Control.abort_tx], and [Alcotest.fail]/
   [failf].  Any other module's [fail]/[failf]/[raise] lookalike — a
   logging [Log.fail], a monadic [Lwt.fail] — does NOT count, and
   neither does [exit]: terminating the process is not propagating the
   abort.  [assert] is accepted ([Assert_failure] propagates). *)
let is_raiser (lid : Longident.t) =
  match Index.flatten_lid lid with
  | Some [ ("raise" | "raise_notrace" | "raise_with_backtrace"
          | "failwith" | "invalid_arg") ] ->
    true
  | Some p -> (
    match
      (* last two components *)
      match List.rev p with
      | a :: b :: _ -> [ b; a ]
      | _ -> []
    with
    | [ "Stdlib";
        ( "raise" | "raise_notrace" | "raise_with_backtrace" | "failwith"
        | "invalid_arg" ) ] ->
      true
    | [ "Control"; "abort_tx" ] -> true
    | [ "Alcotest"; ("fail" | "failf") ] -> true
    | _ -> false)
  | None -> false

let body_reraises (body : Parsetree.expression) =
  let found = ref false in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when is_raiser txt ->
            found := true
          | Pexp_assert _ -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter body;
  !found

(* The one handler classifier.  A case swallows when its pattern catches
   every exception ([catch_all]) or names a raise-at-point fault
   ([crash]), it has no guard, and its body does not syntactically
   re-raise; in a [match] only [exception] cases are handlers.  Returns
   [(catch_all, crash)], both false for a case that does not swallow. *)
let case_swallows ~what (c : Parsetree.case) =
  let pat =
    match c.pc_lhs.ppat_desc with
    | Ppat_exception p when what = `Match -> Some p
    | _ when what = `Try -> Some c.pc_lhs
    | _ -> None
  in
  match pat with
  | Some p when c.pc_guard = None ->
    let catch_all = pattern_is_catch_all p in
    let crash = pattern_mentions_crash p in
    if (catch_all || crash) && not (body_reraises c.pc_rhs) then
      (catch_all, crash)
    else (false, false)
  | _ -> (false, false)
