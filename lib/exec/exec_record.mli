(** The persistent-memory-relevant record of one execution.

    A failure scenario is a stack of executions, each ending in a power
    failure except the last. For each execution Jaaru records (paper §4):

    - [queue(addr)]: the per-byte history of stores that reached the cache;
    - [getcacheline(addr)]: the interval bounding when each cache line was
      most recently written back to persistent memory.

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

val queue : t -> Pmem.Addr.t -> Store_queue.t
(** The store history for one byte address, created empty on first use. *)

val queue_opt : t -> Pmem.Addr.t -> Store_queue.t option
(** Like {!queue} but without materialising an empty history. *)

val cacheline : t -> Pmem.Addr.t -> Pmem.Interval.t
(** A boxed {e copy} of the last-writeback interval of the line containing
    the given byte, created as [\[0, inf)] on first use. Read-only: the live
    per-line state is unboxed (see {!line_bounds}); refinements must go
    through {!raise_line_lo} / {!lower_line_hi}, and a copy taken before a
    refinement does not see it. *)

val line_lo : t -> Pmem.Addr.t -> int
(** The line's last-writeback lower bound, without boxing. *)

val line_bounds : t -> Pmem.Addr.t -> int * int
(** The line's [(lo, hi)] bounds, without boxing. *)

val raise_line_lo : t -> Pmem.Addr.t -> seq:int -> unit
(** Raises the line's lower bound to [seq] if higher (a flush took effect). *)

val lower_line_hi : t -> Pmem.Addr.t -> seq:int -> unit
(** Lowers the line's upper bound to [seq] if lower (a recovery read proved
    the writeback happened before [seq]). *)

val push_store : t -> Pmem.Addr.t -> value:int -> seq:int -> label:string -> unit
(** Records one byte store taking effect in the cache. *)

val flush_line : t -> Pmem.Addr.t -> seq:int -> unit
(** Raises the line's last-writeback lower bound to [seq] (a [clflush] or an
    evicted [clflushopt] took effect). *)

(** {1 Bounded store accessors}

    Read paths must use these instead of touching {!queue_opt} directly: a
    snapshot view (below) shares the live record's queue table and hides
    every store pushed after the capture behind a sequence-number bound, and
    only these accessors apply that bound. On ordinary records they see the
    whole queue. *)

val has_stores : t -> Pmem.Addr.t -> bool
(** Whether [addr] has at least one visible store. *)

val visible_stores : t -> Pmem.Addr.t -> (Store_queue.t * int) option
(** The store history of [addr] together with its visible length (the prefix
    a snapshot view exposes), for unboxed indexed reads via
    {!Store_queue.value_at} and friends. Indices [0 .. n-1] are visible; the
    queue may physically hold more. *)

val fold_stores : (Store_queue.entry -> 'a -> 'a) -> t -> Pmem.Addr.t -> 'a -> 'a
(** Oldest-first fold over the visible stores of [addr]. *)

val first_store : t -> Pmem.Addr.t -> Store_queue.entry option
val last_store : t -> Pmem.Addr.t -> Store_queue.entry option

val last_store_byte : t -> Pmem.Addr.t -> int
(** The newest visible store's byte value at [addr], or [-1] if the address
    has no visible store — the allocation-free probe behind the common-case
    read path (every recorded value is a byte in [0, 255]). *)

val next_store_seq_after : t -> Pmem.Addr.t -> int -> int
(** The sequence number of the oldest visible store of [addr] strictly newer
    than the given seq, or {!Pmem.Interval.infinity} — the paper's "next
    tuple" bound used to refine interval upper ends. *)

(** {1 Snapshot copies}

    Building blocks of the failure-point snapshot layer. *)

val snapshot_view : ?bound:int -> t -> t
(** A read-only view (same [id]) that stays correct while the original keeps
    executing. Line intervals are duplicated, because recovery reads refine
    them in place even on buried records; the store queues are shared, with
    stores newer than [bound] hidden from the accessors above (queue entries
    are immutable and appends carry strictly larger seqs, so the prefix up
    to [bound] is frozen). Capture cost is O(lines touched), independent of
    the store count. [bound] defaults to the record's own bound; views of
    views compose by taking the minimum. Pushing into a view raises
    [Invalid_argument]. *)

val snapshot_freeze : t -> t
(** A private, physically truncated copy of a view: stores beyond the view's
    bound are dropped and the copy is unbounded, so it may receive new
    stores — needed for a restored top record under buffered eviction, where
    the drain at the crash pushes the surviving buffer entries into it. *)

val store_count : t -> int
(** Total byte stores recorded. *)

val flush_count : t -> int
(** Total line-flush events recorded. *)

val written_addrs : t -> Pmem.Addr.t list
(** All byte addresses with at least one recorded store (unordered). *)

val unflushed_store_count : t -> Pmem.Addr.t -> int
(** Number of stores to the byte that are not certainly persisted, i.e. with
    sequence numbers above the line's last-writeback lower bound. Used by the
    Yat state counter. *)

val pp : Format.formatter -> t -> unit
