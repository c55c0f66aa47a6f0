(** The write-ahead log file: CRC32-framed update records with group
    commit.  The log is append-and-redo only: every frame is one
    committed write set, and nothing rewrites the file but the torn-tail
    truncation.

    Format: an 8-byte magic, then frames of
    [length (u32 LE) | CRC-32 over (length bytes ++ payload) | payload].
    The scanner stops at the first frame that fails the CRC or the strict
    payload decode — a torn tail, or a record type this build does not
    know — and reports the offset where the intact prefix ends, so
    recovery can truncate it.

    [append] is one buffer enqueue; the buffer is written and fsynced
    once [sync_every] records are pending or [sync_ns] has elapsed since
    the last sync (group commit).  [sync_every <= 0] is the
    negative-control mode: never fsync, drain the buffer to the OS only
    past a size threshold — acknowledged durability stays at zero.

    IO errors and injected short writes {e poison} the log ([broken])
    instead of raising: the append hook runs inside committed user code,
    which must never observe a WAL failure as an exception. *)

type record =
  | Update of { wv : int; entries : (int * string) list }
      (** one committed write set: (persistent id, serialized value) *)

val record_wv : record -> int

(** {1 Writing} *)

type t

val open_log : path:string -> sync_every:int -> sync_ns:int -> t
(** Open (or create, writing the magic) the log at [path] for appending. *)

val append : t -> record -> unit
(** Enqueue one record; may trigger a group-commit flush.  Dropped
    silently once the log is {!broken}. *)

val sync : t -> unit
(** Force a flush + fsync of everything appended so far. *)

val close : t -> unit
(** Flush (and, unless in negative-control mode, fsync) then close. *)

val path : t -> string
val sync_every : t -> int

val broken : t -> bool
(** The log was poisoned by an IO error or an injected short write; all
    subsequent appends are dropped. *)

val appended_records : t -> int
(** Records enqueued since open (monotone, read without lock). *)

val synced_records : t -> int
(** Records covered by a completed fsync — the acknowledged-durable
    count the crash-restart lane checks against. *)

val synced_wv : t -> int
(** Highest commit version among acknowledged records. *)

(** {1 Scanning (recovery side)} *)

type scanned = {
  s_records : (int * record) list;  (** file offset of each intact frame *)
  s_good_end : int;  (** offset just past the last intact frame *)
  s_file_len : int;  (** [s_file_len > s_good_end] means a torn tail *)
  s_valid_header : bool;  (** bad/missing magic: nothing is replayable *)
}

val scan : string -> scanned
(** Parse the log at [path], stopping at the first torn frame.  Raises
    [Sys_error] if the file cannot be read. *)

val scan_string : string -> scanned
(** Same, over in-memory contents (torn-tail fuzzing). *)

val truncate_tail : string -> good_end:int -> unit
(** Cut the file back to the intact prefix. *)
