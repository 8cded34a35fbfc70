(** A per-thread x86-TSO store buffer.

    Stores, [clflush]es, [clflushopt]s and [sfence]s are buffered in FIFO
    order when executed and take effect in the cache only when evicted
    (paper Fig. 1 and Fig. 7). Loads forward from the newest buffered store to
    the same byte (store-buffer bypass, Fig. 9 lines 2–3).

    The buffer is a growable ring array. Forwarding scans it newest first,
    stops at the first match and allocates nothing.

    The scan does not start at the newest entry. Beside the ring the buffer
    keeps a 64-slot table: for each class of 8-byte words (the word number
    modulo 64), the absolute position of the newest buffered store that
    writes a word of that class. A load of the words [w..w'] starts its scan
    at the largest of their classes' positions, or finds nothing at once
    when that position has already left the buffer. This is exact: every
    newer entry writes no word of those classes, so none of the loaded
    words. A scan then visits one entry in the common case, whatever the
    buffer's depth; only stores to other words of the same class (512-byte
    stride) make it walk further. Keeping the table costs [enqueue] one
    write per word a store touches, [copy] a 64-int copy, and nothing in
    [dequeue] or [clear], which only move the head's absolute position. *)

type entry =
  | Store of { addr : Pmem.Addr.t; value : int; width : int; label : string }
      (** A possibly multi-byte store, packed: [value] holds the [width]
          little-endian bytes written starting at [addr] (no per-store byte
          array). All bytes hit the cache atomically with one sequence
          number. *)
  | Clflush of { addr : Pmem.Addr.t; label : string }
  | Clflushopt of { addr : Pmem.Addr.t; enq_seq : int; label : string }
      (** [enq_seq] is σ_curr captured when the instruction executed
          (Fig. 7, Exec_CLFLUSHOPT). *)
  | Sfence

type t

val create : unit -> t
(** An empty buffer; its ring is allocated at the first [enqueue]. *)

val is_empty : t -> bool
val length : t -> int
val enqueue : t -> entry -> unit

val dequeue : t -> entry option
(** Oldest entry, removed. *)

val nth : t -> int -> entry
(** [nth sb i] is the [i]-th entry, oldest first ([0] is the next to be
    dequeued). Raises [Invalid_argument] unless [0 <= i < length sb]. *)

val newest_overlap : t -> Pmem.Addr.t -> width:int -> int
(** [newest_overlap sb a ~width] is the position (as for {!nth}) of the
    newest buffered store that writes any byte of [[a, a + width)], or [-1]
    if none does. *)

val forward_byte : t -> Pmem.Addr.t -> int
(** [forward_byte sb a] is the byte the newest buffered store to address [a]
    writes, or [-1] if no buffered store writes [a] — the TSO
    load-forwarding path for one byte. *)

val copy : t -> t
(** An independent copy of the FIFO and of its forwarding table; entries are
    immutable and shared. *)

val clear : t -> unit
