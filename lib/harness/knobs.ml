(** The command-line knobs shared by [bin/figures.exe] and [bin/chaos.exe].

    Each flag is declared once, here.  Terms that configure process-wide
    state ({!engine}, {!sanitizer}, {!recovery}) apply it when the term is
    evaluated, i.e. after the whole command line parsed and before the
    command's body runs; a malformed value is a command-line error (exit
    124) and applies nothing.  {!lease_ns} and {!wal} only carry their
    values: each caller passes them to the scenario that reads them. *)

open Cmdliner

(* A converter over one of the library parsers, which raise
   [Invalid_argument] on a bad spelling. *)
let conv_of parse print =
  Arg.conv
    ( (fun s ->
        match parse s with
        | v -> Ok v
        | exception Invalid_argument m -> Error (`Msg m)),
      fun ppf v -> Format.pp_print_string ppf (print v) )

(** [--clock], [--retry-cap] and [--faults].  The JSON report records all
    of them in its "config".  A negative retry cap is refused. *)
let engine =
  let clock =
    Arg.(value
         & opt
             (some
                (conv_of Stm_core.Clock.policy_of_string
                   Stm_core.Clock.policy_name))
             None
         & info [ "clock" ] ~docv:"POLICY"
             ~doc:"Global-version-clock policy: gv1 (default, fetch-and-add \
                   per commit), gv4 (CAS once, adopt the winner's value on \
                   failure) or gv5 (commit at read+2, bump the clock on \
                   aborts).")
  in
  let retry_cap =
    Arg.(value & opt (some int) None & info [ "retry-cap" ] ~docv:"N"
           ~doc:"Optimistic retries before escalating to the \
                 serial-irrevocable fallback (default 64, at least 0).")
  in
  let faults =
    Arg.(value
         & opt
             (some (conv_of Stm_core.Faults.parse Stm_core.Faults.to_string))
             None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Enable fault injection, e.g. \
                   seed=7,abort=0.01,lock=0.05,validate=0.05,delay=0.01. \
                   For robustness experiments only - numbers measured with \
                   faults on are not comparable to clean runs.")
  in
  let apply clock retry_cap faults =
    match retry_cap with
    | Some n when n < 0 -> Error (`Msg "--retry-cap must be at least 0")
    | _ ->
      Option.iter Stm_core.Clock.set_policy clock;
      Option.iter (fun n -> Stm_core.Runtime.retry_cap := n) retry_cap;
      Option.iter Stm_core.Faults.enable faults;
      Ok ()
  in
  Term.(term_result ~usage:true (const apply $ clock $ retry_cap $ faults))

(** [--sanitizer]: turns Txsan on for the whole run and evaluates to
    whether it is on.  End the run with {!sanitizer_verdict}. *)
let sanitizer =
  let flag =
    Arg.(value & flag & info [ "sanitizer" ]
           ~doc:"Enable the transactional sanitizer (Txsan) for the run: \
                 vlock discipline, opacity at every read, escape hatches \
                 and abort swallowing are checked live, and any violation \
                 fails the run and is recorded in the JSON report.  \
                 Numbers are not comparable to clean runs.")
  in
  Term.(const (fun on -> if on then Stm_core.Sanitizer.enable (); on) $ flag)

(** The end-of-run sanitizer report: 0 when the sanitizer is off or saw
    nothing, otherwise 1 after listing every violation on stderr. *)
let sanitizer_verdict () =
  if not (Stm_core.Sanitizer.enabled ()) then 0
  else
    match Stm_core.Sanitizer.violation_count () with
    | 0 ->
      print_endline "# sanitizer: clean";
      0
    | n ->
      Printf.eprintf "# sanitizer: %d violation(s)\n" n;
      List.iter
        (fun v -> Format.eprintf "#   %a@." Stm_core.Sanitizer.pp_violation v)
        (Stm_core.Sanitizer.violations ());
      1

(** [--lease-ns]: the heartbeat lease; [None] leaves each scenario's own
    default. *)
let lease_ns =
  Arg.(value & opt (some int) None & info [ "lease-ns" ] ~docv:"NS"
         ~doc:"Heartbeat lease in nanoseconds: a lock owner whose registry \
               heartbeat is older than this is considered stale and its \
               locks may be reclaimed.")

(** [--recovery] (with {!lease_ns}): arms orphan-lock recovery for the
    whole run with the given lease, [default_lease_ns] when [--lease-ns]
    is absent, and evaluates to [Some lease]; [None] when off.  A lease
    without [--recovery] is refused. *)
let recovery ?(default_lease_ns = Stm_core.Recovery.default_lease_ns) () =
  let flag =
    Arg.(value & flag & info [ "recovery" ]
           ~doc:"Enable crash-tolerant orphan-lock recovery (in-flight \
                 registry, lease-based reclamation).  Adds a \"recovery\" \
                 object to the JSON report.")
  in
  let apply on lease =
    match (on, lease) with
    | false, Some _ -> Error (`Msg "--lease-ns needs --recovery")
    | false, None -> Ok None
    | true, _ ->
      let lease_ns = Option.value lease ~default:default_lease_ns in
      Stm_core.Recovery.enable ~lease_ns ();
      Ok (Some lease_ns)
  in
  Term.(term_result ~usage:true (const apply $ flag $ lease_ns))

type wal = { path : string option; sync_every : int option }

(** [--wal FILE] and [--wal-sync-every N]. *)
let wal =
  let path =
    Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"FILE"
           ~doc:"Write-ahead log for durable commits.  figures.exe logs \
                 the whole sweep's commits to $(docv); chaos.exe \
                 crash-restart has its children write it (default: a \
                 per-process file under the temp directory).")
  in
  let sync_every =
    Arg.(value & opt (some int) None & info [ "wal-sync-every" ] ~docv:"N"
           ~doc:"Group commit: fsync the log every $(docv) records (default \
                 1, every commit; 0 never syncs).")
  in
  Term.(const (fun path sync_every -> { path; sync_every }) $ path $ sync_every)
