(** Static lint for STM discipline ("txlint"), v2: interprocedural.

    The per-site checks of v1 are joined by a repo-wide symbol index
    ({!Index}), a best-effort call graph ({!Callgraph}) and transitive
    effect summaries computed to fixpoint ({!Summary}), so violations
    are reported on {e reachability} from transaction entry points, not
    just on textual occurrence.

    Check catalogue:

    - {b catch-all}: an exception handler that matches every exception
      ([with _ ->], [with e ->], an [exception _] case of a [match])
      without a guard and without re-raising in its body.  Such handlers
      swallow [Control.Abort_tx] and turn doomed transactions into
      zombies — the paper's opacity argument assumes aborts always reach
      the retry loop.  The accepted re-raisers are a {e named}
      allowlist: the stdlib raisers (bare or [Stdlib.]-qualified),
      [Control.abort_tx], [Alcotest.fail]/[failf] and [assert].  Other
      modules' [fail]/[failf] lookalikes and [exit] do not count.
    - {b obj-magic}: any use of an unchecked cast, [Obj.magic] or
      [Obj.obj], at an unannotated site.
    - {b stm-escape}: any qualified mention of the escape hatches
      [peek], [unsafe_write] or [unsafe_preload] at an unannotated site.
    - {b crash-swallowed}: a handler matching one of the raise-at-point
      fault exceptions ([Control.Crashed], [Faults.Injected_failure])
      without re-raising.  Engines must let a simulated crash unwind the
      whole stack so the orphan-lock recovery layer sees the same state
      a real domain death would leave.
    - {b tx-escape}: a transaction body (the thunk passed to [atomic])
      mentions, or transitively reaches through the
      call graph, an escape hatch — even an annotated one: annotations
      sanction {e non-transactional} use only.
    - {b tx-swallow}: a transaction body transitively reaches a
      catch-all or crash-swallowing handler.  The finding message
      carries the witness call chain.
    - {b lock-release}: a function that directly calls a lock-acquire
      primitive ([Vlock.try_lock]/[try_lock_save],
      [Wset.lock_all]/[lock_one], [Serial.enter], [Mutex.lock]) without a [Fun.protect] or a [try]
      whose handler releases/undoes/forgets, and without an annotation.
    - {b bad-allow}: a [[@txlint.allow]] attribute that is malformed,
      names an unknown kind, or lacks a reason string.

    Suppression is by annotation at the site:
    [[@txlint.allow "<kind>" "<reason>"]] on an expression, [let]
    binding or module binding, or [[@@@txlint.allow ...]] floating in a
    structure (covers the rest of the file).  The v1 path-suffix
    whitelists are gone: annotation at the site is the only
    suppression. *)

type kind =
  | Catch_all  (** exception handler that swallows every exception *)
  | Obj_magic  (** [Obj.magic] or [Obj.obj] at an unannotated site *)
  | Stm_escape
      (** [peek]/[unsafe_write]/[unsafe_preload] at an unannotated site *)
  | Crash_swallowed
      (** [Control.Crashed]/[Faults.Injected_failure] caught without
          re-raise *)
  | Tx_escape  (** escape hatch reachable from a transaction body *)
  | Tx_swallow
      (** abort/crash-swallowing helper reachable from a transaction
          body *)
  | Lock_release
      (** lock acquired without a protected release in the same
          function *)
  | Bad_allow  (** malformed [[@txlint.allow]] *)

val all_kinds : kind list

val kind_name : kind -> string
(** Stable machine-readable name (["catch-all"], ["tx-escape"], ...),
    also the SARIF rule id and the kind string accepted by
    [[@txlint.allow]]. *)

val kind_description : kind -> string
(** One-line description used as the SARIF rule shortDescription. *)

type finding = {
  file : string;
  line : int;
  col : int;  (** 0-based, compiler convention *)
  kind : kind;
  msg : string;
}

val pp_finding : Format.formatter -> finding -> unit
(** [file:line:col: [kind] msg] — one line, editor-clickable. *)

val escape_names : string list
(** The escape-hatch value names: [peek], [unsafe_write],
    [unsafe_preload]. *)

val analyze :
  ?wrapper_of:(string -> string option) ->
  (string * string) list ->
  finding list * string list
(** [analyze sources] runs the full interprocedural analysis over a set
    of [(filename, source)] pairs: one parse per file, one shared
    symbol index and summary fixpoint.  Returns findings (sorted by
    file, position, kind; deduplicated) and parse-error messages.
    [~wrapper_of] overrides the dune-probe used to map a file to its
    library wrapper module (used by tests to analyze in-memory
    sources). *)

val lint_string : filename:string -> string -> (finding list, string) result
(** Single-unit analysis — no cross-file edges, so strictly weaker than
    {!analyze} on the same file set.  [Error msg] on a parse failure. *)

val lint_file : string -> (finding list, string) result

val lint_files : string list -> finding list * string list
(** Read and {!analyze} many files together; unreadable files are
    reported in the error list, not skipped silently. *)

val ml_files_under : string list -> string list
(** Recursively collect [*.ml] files under the given roots, skipping
    [_build], [_opam], [fixtures] and dot-directories; sorted. *)
