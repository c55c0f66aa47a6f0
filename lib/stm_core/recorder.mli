(** Event recording for the theory bridge.

    When a sink is installed, STM implementations emit the events of the
    paper's model (Section II): transaction begin/commit/abort, operation
    invocation/response pairs on transactional variables, and
    acquire/release of protection elements.  The {!Histories} library
    converts the recorded trace into a formal history and runs the
    (relax-)serializability, composability and outheritance checkers on it.

    Recording is intended for tests running under the deterministic
    scheduler (single domain); installing a sink while multiple domains run
    transactions is allowed but the interleaving of recorded events then
    reflects emission order, which is only an approximation. *)

type event =
  | Begin of { tx : int; proc : int }
  | Commit of { tx : int; proc : int }
  | Abort of { tx : int; proc : int }
  | Read of { pe : int; tx : int; value_repr : int }
      (** operation invocation+response on a tvar viewed as a register *)
  | Write of { pe : int; tx : int; value_repr : int }
  | Acquire of { pe : int; proc : int }
  | Release of { pe : int; proc : int }

val install : (event -> unit) -> unit
(** Install a sink; events flow to it until {!remove}. *)

val remove : unit -> unit

val enabled : unit -> bool

val emit : event -> unit
(** No-op when no sink is installed. *)

val record : (unit -> 'a) -> event list * 'a
(** [record f] runs [f] with a collecting sink installed and returns the
    events emitted during the run (in emission order) along with [f]'s
    result.  The previous sink, if any, is restored afterwards. *)

val repr_of_value : 'a -> int
(** Structural fingerprint used as the operation's return/argument value in
    recorded events.  Equal values map to equal fingerprints.  The engines
    compute it only while a sink is installed ({!Txrec.read} and
    {!Txrec.write} take the value and hash it on their recording branch),
    so an unrecorded read never pays for the hash. *)
