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

val line_lo : t -> Pmem.Addr.t -> int
(** The last-writeback lower bound of the line containing the given byte
    ([0] for a line no flush has reached). *)

val line_bounds : t -> Pmem.Addr.t -> int * int
(** The [(lo, hi)] last-writeback interval of the line containing the given
    byte, [(0, Pmem.Line_table.infinity)] for an untouched line. *)

val raise_line_lo : t -> Pmem.Addr.t -> seq:int -> unit
(** Raises the line's lower bound to [seq] if higher (a flush took effect). *)

val lower_line_hi : t -> Pmem.Addr.t -> seq:int -> unit
(** Lowers the line's upper bound to [seq] if lower (a recovery read proved
    the writeback happened before [seq]). *)

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

    The only read paths into the store histories: a snapshot view (below)
    shares the live record's per-line rows and hides every store pushed after
    the capture behind a sequence-number bound, which these accessors apply.
    On ordinary records they see the whole queue. *)

val visible_stores : t -> Pmem.Addr.t -> (Store_queue.t * int) option
(** The store history of [addr] together with its visible length [n > 0]
    (the prefix a snapshot view exposes), for indexed reads via
    {!Store_queue.value_at} and friends, or [None] if [addr] has no visible
    store. Indices [0 .. n-1] are visible; the queue may physically hold
    more. *)

val last_store_byte : t -> Pmem.Addr.t -> int
(** The newest visible store's byte value at [addr], or [-1] if the address
    has no visible store — the allocation-free probe behind the common-case
    read path (every recorded value is a byte in [0, 255]). *)

val next_store_seq_after : t -> Pmem.Addr.t -> int -> int
(** The sequence number of the oldest visible store of [addr] strictly newer
    than the given seq, or {!Pmem.Line_table.infinity} — the paper's "next
    tuple" bound used to refine interval upper ends. *)

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
