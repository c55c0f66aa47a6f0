type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- v

let grow t =
  let data = Array.make (2 * Array.length t.data) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t v =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

(* Freed slots are wiped to the dummy so a cleared set stops pinning its
   elements (tvars, pending values) for the GC; the backing store itself
   is kept for reuse.  An empty vector skips the fill, a C call. *)
let clear t =
  if t.len > 0 then begin
    Array.fill t.data 0 t.len t.dummy;
    t.len <- 0
  end

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let for_all p t = not (exists (fun x -> not (p x)) t)

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))

(* In-place, allocation-free insertion sort of the live prefix (O(1)
   space).  Stability is not promised — the commit path sorts write
   entries by unique tvar id, and write sets are small. *)
let sort cmp t =
  let a = t.data in
  for i = 1 to t.len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let append_into ~src ~dst = iter (push dst) src

let filter_in_place p t =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let x = t.data.(i) in
    if p x then begin
      t.data.(!kept) <- x;
      incr kept
    end
  done;
  let dropped = t.len - !kept in
  Array.fill t.data !kept dropped t.dummy;
  t.len <- !kept;
  dropped
