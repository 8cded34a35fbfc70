(** The persistent-memory-relevant record of one execution.

    A failure scenario is a stack of executions, each ending in a power
    failure except the last. For each execution Jaaru records (paper §4):

    - [queue(addr)]: the per-byte history of stores that reached the cache;
    - [getcacheline(addr)]: the interval bounding when each cache line was
      most recently written back to persistent memory.

    Both are kept per cache line: one {!Pmem.Line_table} slot holds the
    line's interval and a row of 64 byte histories, so recording a store is
    one line lookup however many bytes it writes. Bytes and lines no store
    has reached share one empty sentinel instead of a history of their own.

    The bottom of every stack is the {e initial} pseudo-execution: a fully
    persisted, all-zero memory image, the analogue of a freshly zeroed pool
    file. *)

type t

val create : id:int -> t
(** A fresh execution record. [id] is its depth in the execution stack;
    id 0 is reserved for {!initial}. *)

val initial : unit -> t
(** The all-zero, fully-flushed base image. *)

val id : t -> int
val is_initial : t -> bool

val seq_bound : t -> int
(** Stores with a larger seq are hidden from every read: [max_int] on an
    ordinary record, the capture-time bound on a snapshot view. The visible
    part of a byte history [q] is its oldest [Store_queue.count_le q
    (seq_bound e)] entries. *)

val line_lo : t -> Pmem.Addr.t -> int
(** The last-writeback lower bound of the line containing the given byte
    ([0] for a line no flush has reached). *)

val line_bounds : t -> Pmem.Addr.t -> int * int
(** The [(lo, hi)] last-writeback interval of the line containing the given
    byte, [(0, Pmem.Line_table.infinity)] for a line no store or flush has
    reached. Like every read here, it never adds a line to the record. *)

val push_store :
  t -> Pmem.Addr.t -> width:int -> value:int -> seq:int -> label:string -> unit
(** [push_store e addr ~width ~value ~seq ~label] records a store of the low
    [width] little-endian bytes of [value] taking effect in the cache: byte
    [i] goes to [addr + i], every byte stamped with the one [seq] (a store's
    bytes reach the cache atomically, paper §4). A store inside one line
    costs one line lookup; one straddling a line boundary is split there.
    Raises [Invalid_argument] on a width outside [\[1, 8\]], a negative
    [addr], or a snapshot view. *)

val flush_line : t -> Pmem.Addr.t -> seq:int -> unit
(** Raises the line's last-writeback lower bound to [seq] (a [clflush] or an
    evicted [clflushopt] took effect). *)

(** {1 Bounded store accessors}

    Per-address reads of the store histories: a snapshot view (below)
    shares the live record's per-line rows and hides every store pushed after
    the capture behind a sequence-number bound, which these accessors apply
    (the line slots below leave it to their reader, through {!seq_bound}).
    On ordinary records they see the whole queue. *)

val visible_stores : t -> Pmem.Addr.t -> (Store_queue.t * int) option
(** The store history of [addr] together with its visible length [n > 0]
    (the prefix a snapshot view exposes), for indexed reads via
    {!Store_queue.value_at} and friends, or [None] if [addr] has no visible
    store. Indices [0 .. n-1] are visible; the queue may physically hold
    more. *)

val last_store_byte : t -> Pmem.Addr.t -> int
(** The newest visible store's byte value at [addr], or [-1] if the address
    has no visible store (every recorded value is a byte in [0, 255]). *)

val next_store_seq_after : t -> Pmem.Addr.t -> int -> int
(** The sequence number of the oldest visible store of [addr] strictly newer
    than the given seq, or {!Pmem.Line_table.infinity} — the paper's "next
    tuple" bound used to refine interval upper ends. *)

(** {1 Line slots}

    The read-from path's view of one cache line: one probe yields the slot
    whose interval and row of 64 byte histories ({!Store_queue}s indexed by
    line offset, visible up to {!seq_bound}) serve every byte of the
    line. A slot index stays valid until a store or flush adds a line to
    the record; no read does. *)

val line_slot : t -> int -> int
(** [line_slot e line] is the slot of cache line number [line], or [-1] if
    no store or flush has reached it. Never inserts. *)

val slot_lo : t -> int -> int
val slot_hi : t -> int -> int
(** The slot's last-writeback interval; [(0, infinity)] for slot [-1]. *)

val slot_row : t -> int -> Store_queue.t array
(** The slot's 64 byte histories; all empty for slot [-1]. *)

val refine_slot : t -> int -> lo:int -> hi:int -> unit
(** Raises the slot's lower bound to [lo] if higher and lowers its upper
    bound to [hi] if lower: a recovery read proved the line was written back
    within [\[lo, hi)]. Raises [Invalid_argument] on slot [-1]. *)

(** {1 Snapshot copies}

    Building blocks of the failure-point snapshot layer. *)

val snapshot_view : ?bound:int -> t -> t
(** A read-only view (same [id]) that stays correct while the original keeps
    executing. Line intervals are duplicated, because recovery reads refine
    them in place even on buried records; the lines' rows of store queues
    are shared, with stores newer than [bound] hidden from the accessors
    above (queue entries are immutable and appends carry strictly larger
    seqs, so the prefix up to [bound] is frozen). Capture cost is O(lines
    touched), independent of the store count. [bound] defaults to the
    record's own bound; views of views compose by taking the minimum.
    Pushing into a view raises [Invalid_argument]. *)

val snapshot_freeze : t -> t
(** A private, physically truncated copy of a view, made row by row: stores
    beyond the view's bound are dropped and the copy is unbounded, so it may
    receive new stores — needed for a restored top record under buffered
    eviction, where the drain at the crash pushes the surviving buffer
    entries into it. *)

val store_count : t -> int
(** Total bytes stored (a [~width:8] store counts 8). *)

val flush_count : t -> int
(** Total line-flush events recorded. *)

val written_addrs : t -> Pmem.Addr.t list
(** All byte addresses with at least one visible store (unordered). *)
