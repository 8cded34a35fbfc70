(** Per-thread TSO state and the instruction-execution / eviction algorithms
    of the paper's Figures 7 and 8.

    Instruction execution (the [exec_*] functions) enqueues into the thread's
    store buffer; eviction ([evict_one], [drain]) pops entries and applies
    their cache / persistent-storage effects to the top of an
    {!Exec.Exec_stack.t}, stamping them from the stack's sequence counter.
    The thread also tracks the per-line and per-fence timestamps used to compute the
    flush-buffer lower bounds for [clflushopt]. *)

type t

val create : tid:int -> t

val copy : t -> t
(** An independent copy of the whole per-thread volatile state: store buffer,
    flush buffer and timestamps. Used by the failure-point snapshot layer to
    freeze the state at a crash so that the buffered-drain decisions can be
    replayed on a restored copy later. *)

val tid : t -> int
val store_buffer : t -> Store_buffer.t
val flush_buffer : t -> Flush_buffer.t

(** {1 Phase one — executing instructions (Fig. 7)} *)

val exec_store : t -> Pmem.Addr.t -> value:int -> width:int -> label:string -> unit
(** Enqueues a packed [width]-byte little-endian store of [value]. *)

val exec_clflush : t -> Pmem.Addr.t -> label:string -> unit

val exec_clflushopt : t -> Exec.Exec_stack.t -> Pmem.Addr.t -> label:string -> unit
(** Captures the stack's current sequence number at execution time. *)

val exec_sfence : t -> unit

(** {1 Phase two — updating storage (Fig. 8)} *)

val evict_one : t -> Exec.Exec_stack.t -> bool
(** Pops and applies the oldest store-buffer entry. [false] when empty. *)

val drain : t -> Exec.Exec_stack.t -> unit
(** Evicts until the store buffer is empty. *)

val evict_prefixes : t list -> Exec.Exec_stack.t -> evicted:int array -> keep:int array -> unit
(** The drain at a crash: thread after thread, in list order, evicts the
    [i]-th thread's oldest entries until [keep.(i)] of them are gone,
    [evicted.(i)] counting those already evicted, and records the new
    count in [evicted.(i)]. A thread's evictions are stamped after every
    earlier thread's. Raises [Invalid_argument] if some [evicted.(i)]
    exceeds [keep.(i)]. *)

val sync : t -> Exec.Exec_stack.t -> unit
(** The synchronisation step: drains the store buffer, then the flush
    buffer. Taken by [mfence] (so by every locked RMW), thread spawn (the
    parent), exit, join and the end of a failure-free execution. *)

val reset : t -> unit
(** Clears buffers and timestamps (power failure: buffered state is lost). *)
