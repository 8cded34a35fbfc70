(** The persistent-memory-relevant record of one execution.

    A failure scenario is a stack of executions, each ending in a power
    failure except the last. For each execution Jaaru records (paper §4):

    - [queue(addr)]: the per-byte history of stores that reached the cache;
    - [getcacheline(addr)]: the interval bounding when each cache line was
      most recently written back to persistent memory.

    Both are kept per cache line: one {!Pmem.Line_table} slot holds the
    line's interval and one append-only {!log} of the stores that reached
    the line. An entry is a whole store — all its bytes reach the cache
    atomically, under one sequence number (paper §4) — so recording a store
    is one line lookup and one append, and seqs strictly increase along a
    line's log. The paper's per-byte [queue(addr)] is the {e projection} of
    the log: the entries covering the byte, each contributing its byte of
    the stored value.

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
    part of a line's log [l] is its oldest [count_le l (seq_bound e)]
    entries. *)

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
    [i] goes to [addr + i]. A store inside one line is one line lookup and
    one log entry; one straddling a line boundary is split there into two
    entries with the same [seq]. Raises [Invalid_argument] on a width
    outside [\[1, 8\]], a negative [addr], a snapshot view, or a [seq] not
    above the line's newest entry's. *)

val flush_line : t -> Pmem.Addr.t -> seq:int -> unit
(** Raises the line's last-writeback lower bound to [seq] (a [clflush] or an
    evicted [clflushopt] took effect). *)

(** {1 The per-byte projection}

    Per-address reads of the store history: a snapshot view (below) shares
    the live record's line logs and hides every store appended after the
    capture behind a sequence-number bound, which these accessors apply
    (the line slots below leave it to their reader, through {!seq_bound}).
    On ordinary records they see the whole log. *)

type byte_store = { seq : int; value : int; label : string }
(** One store as a byte sees it: the store's seq and label, and the byte of
    its value that landed at the address. *)

val visible_stores : t -> Pmem.Addr.t -> byte_store list
(** The visible stores to [addr], oldest first ([[]] if none). *)

val last_store_byte : t -> Pmem.Addr.t -> int
(** The newest visible store's byte value at [addr], or [-1] if the address
    has no visible store (every recorded value is a byte in [0, 255]). *)

val next_store_seq_after : t -> Pmem.Addr.t -> int -> int
(** The sequence number of the oldest visible store to [addr] strictly newer
    than the given seq, or {!Pmem.Line_table.infinity} — the paper's "next
    tuple" bound used to refine interval upper ends. *)

val written_addrs : t -> Pmem.Addr.t list
(** All byte addresses with at least one visible store (unordered). *)

(** {1 Line logs}

    The read-from path's view of one cache line: one probe yields the slot
    whose interval and log serve every byte of the line. A slot index stays
    valid until a store or flush adds a line to the record; no read does.

    Entry [k] of a log is the store of the [widths.(k)] bytes from line
    offset [offs.(k)], of the low bytes of [values.(k)], at [seqs.(k)];
    entries [0 .. len - 1] exist and the arrays may be longer. [newest.(o)]
    is the index of the newest entry covering offset [o], or [-1]. A log is
    shared by a record and its snapshot views, so only a prefix of it may be
    visible to a given reader (see {!seq_bound}). *)

type log = private {
  mutable seqs : int array;
  mutable offs : int array;
  mutable widths : int array;
  mutable values : int array;
  mutable labels : string array;
  mutable len : int;
  newest : int array;
}

val count_le : log -> int -> int
(** [count_le l s] is the number of entries with [seq <= s]: binary search,
    after an O(1) check of the newest entry, which settles the common
    cases. Used to bound reads to a snapshot's prefix and to locate a line
    interval's window in the log. *)

val newest_overlap : log -> int -> int -> int -> int
(** [newest_overlap l n a b] is the index of the newest of the first [n]
    entries that writes a byte of the offsets [\[a, b)], or [-1]. It reads
    [newest] and scans only when that points at or past [n]. *)

val next_overlap : log -> int -> int -> int -> int -> int
(** [next_overlap l k n a b] is the index of the oldest entry in
    [\[k, n)] that writes a byte of the offsets [\[a, b)], or [-1]. *)

val byte_at : log -> int -> int -> int
(** [byte_at l k off] is the byte entry [k] wrote at line offset [off],
    which it must cover. *)

val line_slot : t -> int -> int
(** [line_slot e line] is the slot of cache line number [line], or [-1] if
    no store or flush has reached it. Never inserts. *)

val slot_lo : t -> int -> int
val slot_hi : t -> int -> int
(** The slot's last-writeback interval; [(0, infinity)] for slot [-1]. *)

val slot_log : t -> int -> log
(** The slot's log; an empty one for slot [-1] or a line only flushes have
    reached. *)

val refine_slot : t -> int -> lo:int -> hi:int -> unit
(** Raises the slot's lower bound to [lo] if higher and lowers its upper
    bound to [hi] if lower: a recovery read proved the line was written back
    within [\[lo, hi)]. Raises [Invalid_argument] on slot [-1]. *)

(** {1 Snapshot copies}

    Building blocks of the failure-point snapshot layer. *)

val snapshot_view : ?bound:int -> t -> t
(** A read-only view (same [id]) that stays correct while the original keeps
    executing. Line intervals are duplicated, because recovery reads refine
    them in place even on buried records; the line logs are shared, with
    stores newer than [bound] hidden (entries are immutable and appends
    carry strictly larger seqs, so the prefix up to [bound] is frozen).
    Capture cost is O(lines touched), independent of the store count.
    [bound] defaults to the record's own bound; views of views compose by
    taking the minimum. Pushing into a view raises [Invalid_argument]. *)

val snapshot_freeze : t -> t
(** A private, physically truncated copy of a view, made log by log: stores
    beyond the view's bound are dropped and the copy is unbounded, so it may
    receive new stores — needed for a restored top record under buffered
    eviction, where the drain at the crash pushes the surviving buffer
    entries into it. *)

val store_count : t -> int
(** Total bytes stored (a [~width:8] store counts 8). *)

val flush_count : t -> int
(** Total line-flush events recorded. *)
