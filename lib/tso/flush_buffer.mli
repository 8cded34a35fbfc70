(** A per-thread clflushopt reordering buffer.

    Evicted [clflushopt] instructions do not flush immediately: they wait in
    this buffer (modelling their weak ordering, Table 1) until an [sfence],
    [mfence] or locked RMW drains it (paper Fig. 8, Evict_FB). Each entry
    carries the sequence-number lower bound computed at eviction time —
    the max of the instruction's execution time, the thread's last store or
    clflush to the same line, and the thread's last sfence. *)

type entry = { addr : Pmem.Addr.t; bound : int }

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int
val add : t -> entry -> unit

val drain : t -> (entry -> unit) -> unit
(** Applies the callback to every entry (insertion order) and empties the
    buffer. *)

val copy : t -> t
(** An independent copy of the buffer; entries are immutable and shared. *)

val clear : t -> unit
