(** Per-byte-address store history within one execution.

    This is the paper's [e.queue(addr)]: the sequence of tuples [(val, seq)]
    recording the values written to one byte address, in the order the stores
    took effect in the cache (strictly increasing sequence numbers). Each
    entry also carries a human-readable source label for bug reports. The
    three fields live in parallel unboxed arrays and are read by index. *)

type t

val create : unit -> t
val length : t -> int

val singleton : value:int -> seq:int -> label:string -> t
(** A queue of one entry, the same as [create] then [push] but cheaper: the
    first store to a byte is the common case on short replays. *)

val push : t -> value:int -> seq:int -> label:string -> unit
(** Appends a store of byte [value] that reached the cache at global sequence
    number [seq]. Its [seq] must exceed the last entry's. *)

val value_at : t -> int -> int
val seq_at : t -> int -> int
val label_at : t -> int -> string
(** Field reads of the [i]-th oldest entry. Raise [Invalid_argument] outside
    [0 .. length - 1]. *)

val truncated_copy : t -> int -> t
(** [truncated_copy q n] is an independent copy of the oldest [n] entries. *)

val count_le : t -> int -> int
(** [count_le q s] is the number of entries with [seq <= s] (binary search —
    seqs strictly increase — after an O(1) check of the newest entry, which
    settles the common cases). Used to bound reads to a snapshot's prefix
    and to locate a line interval's window in a byte's history. *)

val next_seq_after : t -> int -> int
(** [next_seq_after q s] is the sequence number of the oldest entry strictly
    newer than [s], or {!Pmem.Line_table.infinity} if none — the paper's
    "next tuple" bound used to refine interval upper ends. *)
