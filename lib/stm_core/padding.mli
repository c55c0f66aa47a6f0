(** Cache-line padding for contended heap cells.

    OCaml 5.2's [Atomic.make_contended] is not available on the 5.1 compiler
    this library also supports, so padding is done by copying a freshly
    allocated block into a larger one whose size is a whole number of cache
    lines.  Because the atomic primitives only ever touch field 0, an
    [Atomic.t] living in an oversized block behaves identically — it just
    no longer shares its cache line with neighbouring allocations.

    Use this for long-lived cells that many domains hit (the global clock,
    per-domain stat shards, registry slots, the serial-irrevocable token).
    Do not use it for short-lived data or for per-location metadata: each
    padded cell costs at least 128 bytes, which is why per-tvar locks
    ({!Vlock.create}) are left unpadded (a tvar with its lock is 12
    words, 96 bytes). *)

val copy_as_padded : 'a -> 'a
(** [copy_as_padded v] returns a copy of [v] whose heap block is padded to a
    whole number of cache lines.  Only meaningful for freshly allocated
    blocks that nothing else aliases yet (the copy is shallow and the
    original remains live if shared).  Immediates and no-scan blocks
    (strings, float arrays) are returned unchanged. *)

val atomic : 'a -> 'a Atomic.t
(** [atomic v] is a cache-line-padded [Atomic.make v]. *)
