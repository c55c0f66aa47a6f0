(** Durable commits: an append-and-redo write-ahead log for committed
    top-level transactions, and crash-restart recovery.

    A {!Ptvar.t} wraps a {!Stm_core.Tvar.t} with a stable persistent id
    and a {!Codec}.  While {!enable} has a log open, every committed
    top-level transaction that wrote at least one ptvar appends one
    CRC32-framed record [{wv, [(id, bytes)]}] — fired by the engines'
    post-install hook in [Retry_loop], so a record always describes a
    transaction that definitively happened.  Group commit batches fsyncs
    ({!enable}'s [sync_every]); the acknowledged-durable boundary is
    {!acked_records}.  On restart, {!recover} scans the log, truncates a
    torn tail at the first bad CRC and replays records in commit-version
    order into the registered ptvars.  The log holds update records only:
    nothing compacts or rewrites it.  Boosted transactions do not take
    part (DESIGN.md 5h).

    What durability does {e not} promise under [sync_every > 1]: a
    commit's record may still sit in the user-space buffer (or the OS
    page cache) when the process dies — only records counted by
    {!acked_records} are guaranteed to survive.  The crash-restart chaos
    lane measures exactly this boundary. *)

module Crc32 : module type of Crc32
module Wal : module type of Wal

(** Value serialization for ptvars. *)
module Codec : sig
  type 'a t = { encode : 'a -> string; decode : string -> 'a }

  val int : int t
  (** 8-byte little-endian. *)

  val string : string t
  (** Identity. *)
end

(** Transactional variables with a durable identity. *)
module Ptvar : sig
  type 'a t

  val make : id:int -> codec:'a Codec.t -> 'a -> 'a t
  (** Create a tvar initialized to the given value and register it under
      persistent id [id].  Must run before the tvar is shared with
      concurrently committing domains (encoder lookups are
      unsynchronized) and before {!recover} (replay only reaches
      registered ids).  Raises [Invalid_argument] if [id] is taken. *)

  val tvar : 'a t -> 'a Stm_core.Tvar.t
  (** The underlying tvar, for use with any engine whose
      ['a tvar = 'a Stm_core.Tvar.t]. *)

  val id : 'a t -> int

  val value : 'a t -> 'a
  (** Committed value (non-transactional peek). *)
end

(** {1 The live log} *)

val enable : ?sync_every:int -> path:string -> unit -> unit
(** Open (or append to) the WAL at [path], install the commit hook and
    set [Runtime.durability].  [sync_every] (default 1): fsync once this
    many records are pending — 1 is ack-before-return full durability;
    [<= 0] is the negative-control mode that never fsyncs.  Raises
    [Invalid_argument] if already enabled. *)

val disable : unit -> unit
(** Flush, close and uninstall.  No-op when not enabled. *)

val sync : unit -> unit
(** Force flush + fsync now (raises [Invalid_argument] when disabled). *)

val wal_path : unit -> string
val wal_sync_every : unit -> int

val wal_broken : unit -> bool
(** The log was poisoned by an IO error or an injected short write;
    appends are being dropped.  [false] when disabled. *)

val appended_records : unit -> int
(** Records enqueued since {!enable} (0 when disabled). *)

val acked_records : unit -> int
(** Records covered by a completed fsync — the acknowledged-durable
    count; what a crash is guaranteed not to lose. *)

val acked_wv : unit -> int
(** Highest commit version among acknowledged records. *)

(** {1 Recovery} *)

type summary = {
  updates_intact : int;  (** intact update records (prefix durability) *)
  entries_applied : int;
  entries_skipped : int;  (** unknown persistent id *)
  torn_bytes : int;  (** bytes past the last intact record *)
  truncated : bool;  (** a torn tail was cut off *)
  max_wv : int;  (** highest replayed commit version (clock catch-up) *)
}

val recover : ?truncate:bool -> path:string -> unit -> summary
(** Scan the log at [path], drop the torn tail (truncating the file
    unless [truncate:false]), replay update records in ascending commit
    version into the registered ptvars, then fence the global clock above
    the highest replayed version.  A missing file is an empty log.  Call
    with no transactions live and the log not {!enable}d (raises
    [Invalid_argument] otherwise). *)

(** {1 Test / restart isolation} *)

val reset_for_testing : unit -> unit
(** Disable the log (if any) and clear every registration — required
    between chaos seeds that reuse persistent ids. *)
