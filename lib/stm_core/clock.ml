(* The global version clock, with pluggable contention policies (see
   clock.mli and DESIGN.md §5f).  The cell is cache-line padded: under GV1
   every writer commit RMWs it, so sharing a line with any other hot object
   would ping-pong that object too.

   The trace events are hoisted to module level so that a traced run does
   not allocate a constructor application per clock access, and an
   untraced run pays exactly one load-and-branch. *)

let clock = Padding.atomic 0

(* Highest write version handed out by a GV5 tick that exceeded
   [clock + 2] (possible only via the floor rule, i.e. a re-write of a
   location whose lock already carries a higher version).  Maintained so
   that [set_policy] can fence the clock past every installed version when
   leaving GV5; CASed only on those rare floor-raised commits. *)
let gv5_high = Padding.atomic 0

let read_event = Runtime.Read Runtime.clock_pe
let write_event = Runtime.Write Runtime.clock_pe

let now () =
  if !Runtime.tracing then Runtime.trace_access read_event;
  Atomic.get clock

let rec cas_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then cas_max cell v

(* GV4, factored so the test suite can drive the CAS-failure branch
   deterministically: [interference] runs between the initial read and the
   CAS.  A loser does not retry — it adopts the winner's value, which is a
   correct write version because every engine acquires all its write locks
   *before* ticking: any snapshot that could miss the loser's writes under
   the shared version necessarily started after those locks were visible,
   so it aborts on the locked stamps, not on the version. *)
let gv4_tick ~interference () =
  let v = Atomic.get clock in
  interference ();
  if Atomic.compare_and_set clock v (v + 1) then v + 1
  else Atomic.get clock

let no_floor () = 0

let tick ?(floor = no_floor) () =
  (* Every policy is traced as a clock write, even GV5's read-only tick:
     a conservative annotation keeps the DPOR footprint (and thus the
     explored schedule set) identical across policies. *)
  if !Runtime.tracing then Runtime.trace_access write_event;
  match !Runtime.clock_policy with
  | Runtime.GV1 -> Atomic.fetch_and_add clock 1 + 1
  | Runtime.GV4 -> gv4_tick ~interference:ignore ()
  | Runtime.GV5 ->
    let base = Atomic.get clock + 2 in
    let wv = max base (floor () + 1) in
    if wv > base then cas_max gv5_high wv;
    wv

let on_abort () =
  if !Runtime.clock_policy == Runtime.GV5 then begin
    if !Runtime.tracing then Runtime.trace_access write_event;
    Atomic.incr clock
  end

(* Two callers.  WAL recovery fences the clock at the highest replayed
   commit version: the next recovery replays in wv order, so versions
   minted after a restart must stay strictly above every replayed one, or
   a post-recovery commit's record would sort before the state it follows.
   Under GV5, an extending reader catches the clock up to the version it
   saw so that its new snapshot covers it.  Traced as a clock write, like
   [tick] and [on_abort]. *)
let catch_up v =
  if !Runtime.tracing then Runtime.trace_access write_event;
  cas_max clock v;
  cas_max gv5_high v

let current_policy () = !Runtime.clock_policy

let set_policy p =
  (* Leaving GV5, installed versions may exceed the clock (by 2 from the
     lazy commit rule, by more via floor chains).  Fence the clock above
     all of them so the next GV1/GV4 tick cannot mint an already-used
     version. *)
  if !Runtime.clock_policy == Runtime.GV5 && p <> Runtime.GV5 then begin
    cas_max clock (Atomic.get clock + 2);
    cas_max clock (Atomic.get gv5_high)
  end;
  Runtime.clock_policy := p

let all_policies = [ Runtime.GV1; Runtime.GV4; Runtime.GV5 ]

let policy_name = function
  | Runtime.GV1 -> "gv1"
  | Runtime.GV4 -> "gv4"
  | Runtime.GV5 -> "gv5"

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "gv1" -> Runtime.GV1
  | "gv4" -> Runtime.GV4
  | "gv5" -> Runtime.GV5
  | other -> invalid_arg ("Clock.policy_of_string: unknown policy " ^ other)

let reset_for_testing () =
  Atomic.set clock 0;
  Atomic.set gv5_high 0
