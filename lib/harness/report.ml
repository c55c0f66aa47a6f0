(** Machine-readable benchmark reports.

    A dependency-free JSON value type with a printer (and a small parser,
    used by the tests to prove the emitted reports are well formed), plus
    the serialisation of {!Figures.figure_result} into the repository's
    benchmark schema:

    {v
    { "schema_version": 2,
      "config": { "clock": ..., "retry_cap": ..., "starvation_mode": ...,
                  "tx_timeout_ns": ...,
                  "faults": null | { "spec": ..., rates..., "injected": {...} } },
      "figures": [
        { "figure": "6a", "title": ..., "workload": {...},
          "seed": ..., "runs": ..., "duration_s": ...,
          "threads": [1, 2, ...],
          "series": [
            { "name": "OE-STM",
              "points": [
                { "threads": ..., "ops_per_ms": ..., "abort_rate": ...,
                  "total_ops": ..., "commits": ..., "aborts": ...,
                  "starvations": ..., "fallbacks": ..., "timeouts": ...,
                  "read_ws_hits": ..., "read_ws_misses": ...,
                  "elapsed_ms": ..., "runs": ...,
                  "aborts_by_reason": { "<reason>": n, ... },
                  "commit_latency_ns":  {"count", "p50", "p90", "p99", "max"},
                  "abort_latency_ns":   {...},
                  "retry_depth":        {...},
                  "read_set_size":      {...},
                  "write_set_size":     {...},
                  "validation_len":     {...} } ] } ] } ] }
    v}

    Histogram summaries come from the log-bucketed {!Stm_core.Stats.Hist},
    so every percentile is a power-of-two upper bound; a count of 0 means
    detailed metrics were off while the point was measured. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "null"  (* JSON has no nan/inf *)
  | _ ->
    let s = Printf.sprintf "%.12g" f in
    (* "%g" may print an integral float without '.' or 'e'; that is still
       valid JSON (a number), so no fixup is needed. *)
    s

let rec print_into buf ~indent ~level (j : json) =
  let pad n = Buffer.add_string buf (String.make (n * indent) ' ') in
  let newline () = if indent > 0 then Buffer.add_char buf '\n' in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    newline ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          newline ()
        end;
        pad (level + 1);
        print_into buf ~indent ~level:(level + 1) item)
      items;
    newline ();
    pad level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    newline ();
    List.iteri
      (fun i (k, v) ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          newline ()
        end;
        pad (level + 1);
        Buffer.add_char buf '"';
        escape_into buf k;
        Buffer.add_string buf "\": ";
        print_into buf ~indent ~level:(level + 1) v)
      fields;
    newline ();
    pad level;
    Buffer.add_char buf '}'

let to_string ?(indent = 2) j =
  let buf = Buffer.create 4096 in
  print_into buf ~indent ~level:0 j;
  if indent > 0 then Buffer.add_char buf '\n';
  Buffer.contents buf

let write_file file j =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string j))

(* ------------------------------------------------------------------ *)
(* Parsing (for validation; accepts exactly the JSON we print, plus
   arbitrary whitespace)                                               *)

exception Parse_error of string

let of_string (s : string) : (json, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'u' ->
           if !pos + 4 >= n then fail "truncated \\u escape";
           let hex = String.sub s (!pos + 1) 4 in
           let code =
             match int_of_string_opt ("0x" ^ hex) with
             | Some c -> c
             | None -> fail "bad \\u escape"
           in
           (* The emitter only escapes control characters, so decoding the
              ASCII range suffices for round-tripping our own output. *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else fail "non-ASCII \\u escape unsupported";
           pos := !pos + 5
         | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* Convenience accessors for tests and downstream tooling. *)
let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Benchmark schema                                                    *)

let schema_version = 2

let hist_summary (h : Stm_core.Stats.Hist.snapshot) =
  let module H = Stm_core.Stats.Hist in
  Obj
    [ ("count", Int (H.count h));
      ("p50", Int (H.percentile h 50.0));
      ("p90", Int (H.percentile h 90.0));
      ("p99", Int (H.percentile h 99.0));
      ("max", Int (H.max_value h)) ]

let snapshot_fields (s : Stm_core.Stats.snapshot) =
  [ ("commits", Int s.Stm_core.Stats.commits);
    ("aborts", Int s.Stm_core.Stats.aborts);
    ("starvations", Int s.Stm_core.Stats.starvations);
    ("fallbacks", Int s.Stm_core.Stats.fallbacks);
    ("timeouts", Int s.Stm_core.Stats.timeouts);
    ("read_ws_hits", Int s.Stm_core.Stats.read_ws_hits);
    ("read_ws_misses", Int s.Stm_core.Stats.read_ws_misses);
    ( "aborts_by_reason",
      Obj
        (List.map
           (fun (r, n) -> (Stm_core.Control.reason_to_string r, Int n))
           s.Stm_core.Stats.by_reason) );
    ("commit_latency_ns", hist_summary s.Stm_core.Stats.commit_latency_ns);
    ("abort_latency_ns", hist_summary s.Stm_core.Stats.abort_latency_ns);
    ("retry_depth", hist_summary s.Stm_core.Stats.retry_depth);
    ("read_set_size", hist_summary s.Stm_core.Stats.read_set_size);
    ("write_set_size", hist_summary s.Stm_core.Stats.write_set_size);
    ("validation_len", hist_summary s.Stm_core.Stats.validation_len) ]

let point_to_json (p : Sweep.point) =
  Obj
    ([ ("threads", Int p.Sweep.threads);
       ("ops_per_ms", Float p.Sweep.ops_per_ms);
       ("abort_rate", Float p.Sweep.abort_rate);
       ("total_ops", Int p.Sweep.total_ops);
       ("elapsed_ms", Float p.Sweep.elapsed_ms);
       ("runs", Int p.Sweep.runs) ]
    @ snapshot_fields p.Sweep.stats)

let series_to_json (s : Figures.series_result) =
  Obj
    [ ("name", Str s.Figures.series_name);
      ("points", List (List.map point_to_json s.Figures.points)) ]

let figure_to_json (r : Figures.figure_result) =
  let cfg = r.Figures.cfg in
  Obj
    [ ("figure", Str (Figures.short_name r.Figures.figure));
      ("title", Str (Figures.name r.Figures.figure));
      ( "workload",
        Obj
          [ ("size_exp", Int cfg.Workload.size_exp);
            ("update_ratio", Float cfg.Workload.update_ratio);
            ("bulk_ratio", Float cfg.Workload.bulk_ratio) ] );
      ("seed", Int r.Figures.seed);
      ("runs", Int r.Figures.runs);
      ("duration_s", Float r.Figures.duration);
      ("threads", List (List.map (fun t -> Int t) r.Figures.threads));
      ("series", List (List.map series_to_json r.Figures.series)) ]

(* Runtime configuration snapshot: which clock policy, retry cap,
   starvation mode, deadline and fault-injection settings produced the
   numbers.  Read at report-generation time, so it reflects what the CLIs
   set. *)
let config_to_json () =
  let faults =
    match Stm_core.Faults.current () with
    | None -> Null
    | Some c ->
      Obj
        ([ ("spec", Str (Stm_core.Faults.to_string c));
           ("seed", Int c.Stm_core.Faults.seed);
           ("spurious_abort", Float c.Stm_core.Faults.spurious_abort);
           ("lock_fail", Float c.Stm_core.Faults.lock_fail);
           ("validation_fail", Float c.Stm_core.Faults.validation_fail);
           ("delay", Float c.Stm_core.Faults.delay);
           ("max_delay_spins", Int c.Stm_core.Faults.max_delay_spins);
           ("fsync_fail", Float c.Stm_core.Faults.fsync_fail);
           ("short_write", Float c.Stm_core.Faults.short_write) ]
        @ [ ( "injected",
              Obj
                (List.map
                   (fun (k, n) -> (Stm_core.Faults.kind_name k, Int n))
                   (Stm_core.Faults.counts ())) ) ])
  in
  Obj
    [ (* Additive since the clock grew GV1/GV4/GV5 policies; the schema
         version stays 2 (absent = "gv1" in older reports). *)
      ( "clock",
        Str (Stm_core.Clock.policy_name (Stm_core.Clock.current_policy ())) );
      ("retry_cap", Int !Stm_core.Runtime.retry_cap);
      ( "starvation_mode",
        Str
          (match !Stm_core.Runtime.starvation_mode with
          | `Raise -> "raise"
          | `Fallback -> "fallback") );
      ( "tx_timeout_ns",
        match !Stm_core.Runtime.tx_timeout_ns with
        | None -> Null
        | Some ns -> Int ns );
      ("faults", faults) ]

(* Sanitizer verdict: [null] when the run was not sanitized (so old
   consumers see an explicit "not checked", not a zero count), otherwise
   the work done and the violations found, by kind.  Additive — the
   schema version stays 2. *)
let sanitizer_to_json () =
  let module San = Stm_core.Sanitizer in
  if not (San.enabled ()) then Null
  else
    let c = San.checks () in
    Obj
      [ ("enabled", Bool true);
        ( "checks",
          Obj
            [ ("lock_transitions", Int c.San.lock_transitions);
              ("reads_validated", Int c.San.reads_validated);
              ("commits_checked", Int c.San.commits_checked);
              ("unsafe_writes_checked", Int c.San.unsafe_writes_checked);
              ("peeks_checked", Int c.San.peeks_checked);
              ("attempts_audited", Int c.San.attempts_audited);
              ("zombie_aborts", Int c.San.zombie_aborts);
              ("steals_checked", Int c.San.steals_checked) ] );
        ("violations", Int (San.violation_count ()));
        ( "violations_by_kind",
          Obj
            (List.map
               (fun (k, n) -> (San.kind_name k, Int n))
               (San.counts_by_kind ())) ) ]

(* Recovery verdict: [null] when orphan-lock recovery was off (explicit
   "not running", not a zero count), otherwise the lease and the steal
   counters.  Additive — the schema version stays 2. *)
let recovery_to_json () =
  if Option.is_none Stm_core.Runtime.plane.recovery then Null
  else
    let c = Stm_core.Stats.recovery_counters () in
    Obj
      [ ("enabled", Bool true);
        ("lease_ns", Int (Stm_core.Recovery.lease_ns ()));
        ("orphan_steals", Int c.Stm_core.Stats.orphan_steals);
        ("lease_expiries", Int c.Stm_core.Stats.lease_expiries);
        ("poisoned_commits", Int c.Stm_core.Stats.poisoned_commits) ]

(* Durability verdict: [null] when no write-ahead log was open (explicit
   "not durable", not a zero count), otherwise the WAL configuration and
   the durable-commit counters.  Additive — the schema version stays 2. *)
let durability_to_json () =
  if not Stm_core.Runtime.plane.durable then Null
  else
    let c = Stm_core.Stats.durable_counters () in
    Obj
      [ ("enabled", Bool true);
        ("wal_path", Str (Persist.wal_path ()));
        ("sync_every", Int (Persist.wal_sync_every ()));
        ("broken", Bool (Persist.wal_broken ()));
        ("durable_commits", Int c.Stm_core.Stats.durable_commits);
        ("wal_appends", Int c.Stm_core.Stats.wal_appends);
        ("wal_syncs", Int c.Stm_core.Stats.wal_syncs);
        ("wal_sync_failures", Int c.Stm_core.Stats.wal_sync_failures);
        ("wal_short_writes", Int c.Stm_core.Stats.wal_short_writes);
        ("acked_records", Int (Persist.acked_records ()));
        ("acked_wv", Int (Persist.acked_wv ())) ]

let report (results : Figures.figure_result list) =
  Obj
    [ ("schema_version", Int schema_version);
      ("config", config_to_json ());
      ("sanitizer", sanitizer_to_json ());
      ("recovery", recovery_to_json ());
      ("durability", durability_to_json ());
      ("figures", List (List.map figure_to_json results)) ]
