(** Per-transaction recording bookkeeping.

    One value of this type accompanies each top-level transaction attempt
    while a {!Recorder} sink is installed.  It keeps the multiset of
    protection elements currently held by the process — so that acquire and
    release events always alternate correctly per element, as the model's
    well-formedness requires — and the stack of open (possibly nested)
    transaction ids, so that an abort that unwinds through nested levels can
    close every open [begin] with a matching [abort] event. *)

type t

val create : unit -> t option
(** [Some] fresh state when recording is enabled, [None] otherwise (all
    other functions are cheap no-ops on [None]). *)

val begin_tx : t option -> tx:int -> unit
val commit_tx : t option -> tx:int -> unit

val abort_open : t option -> unit
(** Emit an abort for every still-open transaction (innermost first) and
    a release for every held protection element. *)

val acquire : t option -> pe:int -> unit
(** Note one more hold on [pe]; emits an acquire event when the count rises
    from zero. *)

val release : t option -> pe:int -> unit
(** Drop one hold on [pe]; emits a release event when the count reaches
    zero. *)

val release_remaining : t option -> unit
(** Release every hold (used right after the top-level commit). *)

val read : t option -> tx:int -> pe:int -> 'a -> unit
(** [read t ~tx ~pe v] records that [tx] read [v] from [pe].  The value's
    fingerprint ({!Recorder.repr_of_value}) is computed only on [Some], i.e.
    only while a sink is installed; on [None] the call costs one branch. *)

val write : t option -> tx:int -> pe:int -> 'a -> unit
(** Like {!read}, for a write of [v]. *)

(** {2 Abort generation}

    A per-domain counter of {!Control.abort_tx} raises, used by the
    sanitizer to detect aborts swallowed by user code: {!Retry_loop} reads
    it before an attempt and audits it after — an attempt that returned
    normally (or raised something else) while the counter moved contained
    an abort that never reached the loop. *)

val bump_abort_generation : unit -> unit
(** Installed as {!Control.abort_notifier} while the sanitizer is on. *)

val abort_generation : unit -> int

val set_abort_generation : int -> unit
(** Restore the counter to a fenced value after auditing an attempt, so
    nested retry loops (one engine's [atomic] inside another's) each see
    only their own attempt's aborts. *)
