type 'a t = {
  id : int;
  lock : Vlock.t;
  mutable content : 'a;
}

let make v =
  let id = Runtime.fresh_tvar_id () in
  { id; lock = Vlock.create ~pe:id (); content = v }

let id tv = tv.id

(* Double-stamp read: the two SC atomic loads around the plain load of
   [content] ensure that if the stamp is identical and unlocked on both sides
   then the plain load observed the value published by the commit that wrote
   that stamp (commit stores content before the atomic unlock).

   The stamp loads trace themselves (the lock's pe is the tvar id), so a
   traced step covers the content load too — same protection element. *)
let read_consistent tv =
  (* One bounded retry after an orphan steal: a reader stuck behind a lock
     whose owner died would otherwise abort forever. *)
  let rec go retried =
    let s1 = Vlock.stamp tv.lock in
    if Vlock.locked s1 then begin
      if (not retried) && Option.is_some Runtime.plane.recovery
         && Recovery.try_steal_vlock tv.lock
      then go true
      else Control.abort_tx Control.Read_locked
    end
    else begin
      let v = tv.content in
      let s2 = Vlock.stamp tv.lock in
      if s1 <> s2 then Control.abort_tx Control.Read_inconsistent;
      (s1, v)
    end
  in
  go false

let peek tv =
  (match Runtime.plane.sanitizer with
  | Some san -> san (Runtime.San_peek { pe = tv.id })
  | None -> ());
  tv.content

let unsafe_write tv v =
  (match Runtime.plane.trace with
  | Some tr -> tr (Runtime.Write tv.id)
  | None -> ());
  (match Runtime.plane.sanitizer with
  | Some san ->
    let s = Vlock.stamp tv.lock in
    let locked_owner =
      if Vlock.locked s then Some (Vlock.holder tv.lock) else None
    in
    san (Runtime.San_unsafe_write { pe = tv.id; locked_owner })
  | None -> ());
  tv.content <- v
