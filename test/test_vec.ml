open Stm_core

let test_push_get () =
  let v = Vec.create ~dummy:0 () in
  Alcotest.(check bool) "fresh is empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 0" 0 (Vec.get v 0);
  Alcotest.(check int) "get 99" (99 * 99) (Vec.get v 99)

let test_bounds () =
  let v = Vec.create ~dummy:0 () in
  Vec.push v 1;
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "set out of bounds" (Invalid_argument "Vec.set")
    (fun () -> Vec.set v 2 0)

let test_clear_reuses () =
  let v = Vec.create ~capacity:2 ~dummy:0 () in
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  Vec.clear v;
  Alcotest.(check int) "empty after clear" 0 (Vec.length v);
  Vec.push v 9;
  Alcotest.(check int) "push after clear" 9 (Vec.get v 0)

let test_sort () =
  let v = Vec.create ~dummy:0 () in
  List.iter (Vec.push v) [ 5; 1; 4; 2; 3 ];
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (Vec.to_list v)

let test_append_into () =
  let a = Vec.create ~dummy:0 () in
  let b = Vec.create ~dummy:0 () in
  List.iter (Vec.push a) [ 1; 2 ];
  List.iter (Vec.push b) [ 3; 4 ];
  Vec.append_into ~src:b ~dst:a;
  Alcotest.(check (list int)) "appended" [ 1; 2; 3; 4 ] (Vec.to_list a)

let prop_model =
  (* Vec behaves like a list under pushes. *)
  QCheck.Test.make ~name:"vec agrees with list model" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let v = Vec.create ~dummy:0 () in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && Vec.fold_left (fun acc x -> acc + x) 0 v
         = List.fold_left (fun acc x -> acc + x) 0 xs
      && Vec.exists (fun x -> x > 50) v = List.exists (fun x -> x > 50) xs
      && Vec.for_all (fun x -> x >= 0) v = List.for_all (fun x -> x >= 0) xs)

let prop_sort_model =
  (* Lengths up to 100 cover sorts well past the sizes write sets reach. *)
  QCheck.Test.make ~name:"vec sort agrees with list sort" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 100) small_int)
    (fun xs ->
      let v = Vec.create ~dummy:0 () in
      List.iter (Vec.push v) xs;
      Vec.sort compare v;
      Vec.to_list v = List.sort compare xs)

(* The next two tests pin the hot-path leak fix: [clear] and
   [filter_in_place] must wipe freed slots back to the dummy, otherwise the
   backing array keeps the last transaction's entries alive for as long as
   the (long-lived, domain-local) vector exists.  Weak pointers observe
   collectability directly.  The allocations go through [@inline never]
   helpers so no stack slot or register keeps the boxed value reachable
   after the helper returns. *)

let[@inline never] push_boxed v n =
  let x = ref n in
  Vec.push v x;
  let w = Weak.create 1 in
  Weak.set w 0 (Some x);
  w

let test_clear_wipes () =
  let dummy = ref (-1) in
  let v = Vec.create ~dummy () in
  let w = push_boxed v 7 in
  Vec.clear v;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "cleared element collected" true
    (Weak.get w 0 = None);
  (* The vector stays usable after the wipe. *)
  Vec.push v (ref 9);
  Alcotest.(check int) "push after clear" 9 !(Vec.get v 0)

let[@inline never] push_two_boxed v =
  let keep = ref 1 in
  let drop = ref 2 in
  Vec.push v keep;
  Vec.push v drop;
  let w = Weak.create 1 in
  Weak.set w 0 (Some drop);
  w

let test_filter_wipes () =
  let dummy = ref (-1) in
  let v = Vec.create ~dummy () in
  let w = push_two_boxed v in
  let dropped = Vec.filter_in_place (fun x -> !x <> 2) v in
  Alcotest.(check int) "one dropped" 1 dropped;
  Alcotest.(check int) "one kept" 1 (Vec.length v);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "dropped element collected" true
    (Weak.get w 0 = None);
  Alcotest.(check int) "kept element intact" 1 !(Vec.get v 0)

let test_sort_no_alloc () =
  let v = Vec.create ~dummy:0 () in
  for i = 999 downto 0 do
    Vec.push v i
  done;
  let before = Gc.minor_words () in
  Vec.sort compare v;
  let after = Gc.minor_words () in
  (* In-place insertion sort: no [Array.sub] copy of the live prefix.  A
     small slack absorbs incidental boxing by the runtime. *)
  Alcotest.(check bool) "sort allocates no copy" true
    (after -. before < 100.0);
  Alcotest.(check int) "still sorted, first" 0 (Vec.get v 0);
  Alcotest.(check int) "still sorted, last" 999 (Vec.get v 999)

let suite =
  [ Alcotest.test_case "push/get" `Quick test_push_get;
    Alcotest.test_case "bounds checks" `Quick test_bounds;
    Alcotest.test_case "clear reuses storage" `Quick test_clear_reuses;
    Alcotest.test_case "sort" `Quick test_sort;
    Alcotest.test_case "append_into" `Quick test_append_into;
    Alcotest.test_case "clear wipes freed slots" `Quick test_clear_wipes;
    Alcotest.test_case "filter_in_place wipes freed slots" `Quick
      test_filter_wipes;
    Alcotest.test_case "sort is allocation-free" `Quick test_sort_no_alloc;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_sort_model ]
