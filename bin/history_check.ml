(* Interactive demonstration of the theory toolbox: runs the Fig. 1
   scenario (insertIfAbsent composed from elastic children) under the
   deterministic scheduler with a chosen STM, records the history, prints
   it, and reports the verdict of every checker — outheritance,
   relax-serializability, weak and strong composability.

   Examples:
     dune exec bin/history_check.exe -- --stm oe
     dune exec bin/history_check.exe -- --stm drop
     dune exec bin/history_check.exe -- --stm drop --explore *)

open Cmdliner
open Stm_core

[@@@txlint.allow "stm-escape"
    "post-run checkers read committed state after the scheduler run \
     completes"]

let scenario (module S : Stm_intf.S) =
  let x = S.tvar 0 and y = S.tvar 0 in
  let contains tv = S.atomic ~mode:Elastic (fun ctx -> S.read ctx tv) in
  let insert tv = S.atomic ~mode:Elastic (fun ctx -> S.write ctx tv 1) in
  let insert_if_absent ~target ~guard =
    S.atomic ~mode:Elastic (fun _ ->
        if contains guard = 0 then ignore (insert target))
  in
  let procs =
    [ (fun () -> insert_if_absent ~target:x ~guard:y);
      (fun () -> insert_if_absent ~target:y ~guard:x) ]
  in
  let both_set () = S.peek x = 1 && S.peek y = 1 in
  (procs, both_set)

let analyse h =
  let open Histories in
  Format.printf "@.Recorded history:@.%a@." History.pp h;
  Format.printf "committed: %s@."
    (String.concat ", "
       (List.map (Printf.sprintf "t%d") (History.committed h)));
  let env : Spec.env = Spec.all_registers ~init:(fun _ -> Recorder.repr_of_value 0) in
  (match History.well_formed h with
  | Ok () -> Format.printf "well-formed: yes@."
  | Error e -> Format.printf "well-formed: NO (%s)@." e);
  Format.printf "relax-serial as recorded: %b@." (History.relax_serial h);
  (match Serializability.relax_serializable ~env h with
  | Search.Witness_found -> Format.printf "relax-serializable: yes@."
  | Search.No_witness -> Format.printf "relax-serializable: NO@."
  | Search.Unknown -> Format.printf "relax-serializable: budget exhausted@.");
  (* Compositions: per process, the committed children preceding the root. *)
  List.iter
    (fun p ->
      let committed = History.committed h in
      let of_p = List.filter (fun t -> History.proc_of_tx h t = p) committed in
      match List.rev of_p with
      | _root :: (_ :: _ as rev_children) ->
        let children = List.rev rev_children in
        (match Composition.make h children with
        | Error e -> Format.printf "p%d: no composition (%s)@." p e
        | Ok c ->
          Format.printf "p%d composition {%s}:@." p
            (String.concat ", " (List.map (Printf.sprintf "t%d") children));
          List.iter
            (fun t ->
              Format.printf "  Pmin(t%d) = {%s}@." t
                (String.concat ", "
                   (List.map (Printf.sprintf "l%d") (History.pmin h t))))
            children;
          Format.printf "  outheritance: %b@." (Outheritance.satisfies h c);
          List.iter
            (fun v -> Format.printf "    %a@." Outheritance.pp_violation v)
            (Outheritance.violations h c);
          (match Composition.weakly_composable ~env h c with
          | Search.Witness_found -> Format.printf "  weakly composable: yes@."
          | Search.No_witness -> Format.printf "  weakly composable: NO@."
          | Search.Unknown -> Format.printf "  weakly composable: budget exhausted@.");
          (match Composition.strongly_composable ~env h c with
          | Search.Witness_found -> Format.printf "  strongly composable: yes@."
          | Search.No_witness -> Format.printf "  strongly composable: NO@."
          | Search.Unknown ->
            Format.printf "  strongly composable: budget exhausted@."))
      | _ -> ())
    (History.procs h)

let main (module S : Stm_intf.S) explore mode =
  Printf.printf "STM: %s\n" S.name;
  let schedule =
    if explore then begin
      let holds = ref (fun () -> false) in
      match
        Schedsim.Explore.explore ~mode ~max_runs:10_000
          { Schedsim.Explore.procs =
              (fun () ->
                let procs, both = scenario (module S) in
                holds := both;
                procs);
            check = (fun _ -> not (!holds ())) }
      with
      | Schedsim.Explore.Violation { schedule; explored; pruned } ->
        Printf.printf
          "explorer: atomicity violation (both inserted) after %d \
           interleavings (%d pruned)\n"
          explored pruned;
        schedule
      | Schedsim.Explore.All_ok { explored; pruned } ->
        Printf.printf "explorer: all %d interleavings atomic (%d pruned)\n"
          explored pruned;
        []
      | Schedsim.Explore.Out_of_budget { explored; pruned } ->
        Printf.printf "explorer: no violation in %d interleavings (%d pruned)\n"
          explored pruned;
        []
    end
    else []
  in
  let events, both =
    Recorder.record (fun () ->
        let procs, both = scenario (module S) in
        let _ = Schedsim.Sched.run_schedule ~schedule procs in
        both ())
  in
  Printf.printf "final state: both inserted = %b\n" both;
  analyse (Histories.Convert.to_history events)

let cmd =
  let stm =
    Arg.(value
         & opt
             (enum
                [ ("oe", (module Oestm.Oe : Stm_intf.S));
                  ("drop", (module Oestm.E_broken));
                  ("tl2", (module Classic_stm.Tl2));
                  ("lsa", (module Classic_stm.Lsa));
                  ("swiss", (module Classic_stm.Swisstm)) ])
             (module Oestm.Oe)
         & info [ "stm" ] ~docv:"STM"
             ~doc:"STM to drive: oe, drop, tl2, lsa, swiss.")
  in
  let explore =
    Arg.(value & flag & info [ "explore" ]
           ~doc:"First search all interleavings for an atomicity violation \
                 and replay the violating schedule if one exists.")
  in
  let mode =
    Arg.(value
         & opt (enum [ ("dpor", `Dpor); ("naive", `Naive) ]) `Dpor
         & info [ "mode" ] ~docv:"MODE"
           ~doc:"Exploration mode: dpor (partial-order reduction, default) \
                 or naive (full schedule tree).")
  in
  Cmd.v
    (Cmd.info "history_check"
       ~doc:"Record the Fig. 1 composition scenario and run the theory checkers on it")
    Term.(const main $ stm $ explore $ mode)

let () = exit (Cmd.eval cmd)
