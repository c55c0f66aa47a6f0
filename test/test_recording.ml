(* What the engines record: every transactional read and write becomes one
   [Read]/[Write] event whose [value_repr] is the fingerprint of the value
   returned or written.  The engines hand [Txrec] the value itself and the
   fingerprint is taken only while a sink is installed, so these tests pin
   that recorded histories carry the same fingerprints as an eager hash
   would: on a read miss, on a read served from the write set, and on
   writes of structured values (a list node whose hash walks into the next
   node's tvar, and a string). *)

open Stm_core

type node = Nil | Node of int * node Tvar.t

module type ENGINE = Stm_intf.S with type 'a tvar = 'a Tvar.t

type op = R | W

let ops_of_events events =
  List.filter_map
    (function
      | Recorder.Read { pe; value_repr; _ } -> Some (R, pe, value_repr)
      | Recorder.Write { pe; value_repr; _ } -> Some (W, pe, value_repr)
      | _ -> None)
    events

let op_t =
  Alcotest.testable
    (fun ppf (op, pe, repr) ->
      Format.fprintf ppf "%s(pe %d, %d)" (if op = R then "R" else "W") pe repr)
    ( = )

module Check (E : ENGINE) = struct
  (* [weak], when given, is a second read flavour (View-STM's [read_weak]):
     it reads a fresh tvar (a miss) and [head] after the write (a hit). *)
  let run ?(weak : (E.ctx -> node Tvar.t -> node) option) () =
    let tail = E.tvar Nil in
    let head = E.tvar (Node (1, tail)) in
    let name = E.tvar "seed" in
    let other = E.tvar (Node (3, tail)) in
    let fresh = Node (2, tail) in
    let pe = E.tvar_id and repr = Recorder.repr_of_value in
    let events, expected =
      Recorder.record (fun () ->
          E.atomic (fun ctx ->
              let missed = E.read ctx head in
              E.write ctx head fresh;
              E.write ctx name "composed";
              let hit = E.read ctx head in
              let hit_s = E.read ctx name in
              let ops =
                [ (R, pe head, repr missed);
                  (W, pe head, repr fresh);
                  (W, pe name, repr "composed");
                  (R, pe head, repr hit);
                  (R, pe name, repr hit_s) ]
              in
              match weak with
              | None -> ops
              | Some read_weak ->
                let weak_miss = read_weak ctx other in
                let weak_hit = read_weak ctx head in
                ops
                @ [ (R, pe other, repr weak_miss);
                    (R, pe head, repr weak_hit) ]))
    in
    Alcotest.(check (list op_t)) (E.name ^ " read/write fingerprints")
      expected (ops_of_events events);
    match
      Histories.History.well_formed (Histories.Convert.to_history events)
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: recorded history is ill-formed: %s" E.name e
end

let test_oe () =
  let module C = Check (Oestm.Oe) in
  C.run ()

let test_tl2 () =
  let module C = Check (Classic_stm.Tl2) in
  C.run ()

let test_view () =
  let module C = Check (Viewstm.V) in
  C.run ~weak:Viewstm.V.read_weak ()

let suite =
  [ Alcotest.test_case "OE-STM records value fingerprints" `Quick test_oe;
    Alcotest.test_case "TL2 records value fingerprints" `Quick test_tl2;
    Alcotest.test_case "View-STM records value fingerprints, weak reads too"
      `Quick test_view ]
