(* Cache-line padding without [Atomic.make_contended] (OCaml 5.2+), so the
   library keeps building on 5.1: re-allocate the value's block with enough
   trailing words that no other heap object can share its cache line(s).
   The trailing words are ordinary immediate fields (initialised to unit by
   [Obj.new_block]) that nothing ever reads — pure spacing.

   128-byte spacing covers both a 64-byte line on adjacent-line-prefetching
   x86 (the prefetcher pairs lines, so 64-byte spacing still ping-pongs)
   and the 128-byte lines of Apple silicon. *)

let cache_line_words = 16 (* 128 bytes on 64-bit *)

let copy_as_padded : 'a -> 'a =
 fun v ->
  let r = Obj.repr v in
  if (not (Obj.is_block r)) || Obj.tag r >= Obj.no_scan_tag then v
  else begin
    let n = Obj.size r in
    (* Round the total block size up to a whole number of cache lines, with
       at least one line of slack after the payload. *)
    let words =
      (n + cache_line_words + (cache_line_words - 1))
      / cache_line_words * cache_line_words
    in
    let b = Obj.new_block (Obj.tag r) words in
    for i = 0 to n - 1 do
      Obj.set_field b i (Obj.field r i)
    done;
    (Obj.obj b [@txlint.allow "obj-magic" "a same-tag copy of v's fields"])
  end

let atomic v = copy_as_padded (Atomic.make v)
