(** Last-writeback intervals for cache lines, stored flat.

    Jaaru's constraint-refinement technique (paper §3.1) tracks, for every
    cache line of every execution, an interval [\[lo, hi)] of sequence numbers
    bounding the last time that line was written back to persistent memory:

    - a [clflush] (or an evicted [clflushopt]) raises [lo], because the line is
      guaranteed to have been written back at or after that instruction;
    - a recovery load that observes a particular store {e refines} the
      interval: the writeback must have happened after the store read from and
      before the next store to the same byte.

    A fresh line starts at [\[0, infinity)]: absent any flush, a dirty line
    may have been written back at any time (cache-pressure evictions are
    nondeterministic). [lo] only ever rises and [hi] only ever falls.

    The table is open-addressed, from line number to the interval's bounds in
    parallel [int] arrays: a lookup is a probe over an [int array] and
    {!copy} (the snapshot path) is a few array copies. Each slot also carries
    a payload of the caller's choosing, so one probe serves both.

    It is the one per-line map on the per-instruction path, with three users:
    - execution records ([Exec.Exec_record]): the line's interval plus its
      store log as payload;
    - the TSO layer's per-thread line timestamps ([Tso.Thread_state]): the
      last store/clflush sequence number to the line as payload;
    - the redundant-flush pass's per-thread dirty lines
      ([Analysis.Redundant]): a dirty flag as payload.

    [lo]/[hi] matter only to the first; the other two use the table as a flat
    line-keyed map, created by {!create_payload_only} without bound arrays,
    and never read or move the bounds. *)

val infinity : int
(** Upper bound representing "no constraint" ([max_int]). *)

type 'a t

val create : empty:'a -> 'a t
(** An empty table whose fresh slots carry the payload [empty]. *)

val create_payload_only : empty:'a -> 'a t
(** Like {!create}, but the table keeps no bounds: it allocates, grows and
    copies no [lo]/[hi] arrays. {!lo}, {!hi}, {!raise_lo} and {!lower_hi}
    must not be called on it (they do not check, to keep the bounded
    tables' reads branch-free). *)

val copy : 'a t -> 'a t
(** An independent copy: refinements of either table never reach the other.
    Payloads are shared, not copied. *)

val copy_map : ('a -> 'a) -> 'a t -> 'a t
(** [copy] with every slot's payload passed through the function (empty
    slots' included, so it must map [empty] to [empty]). *)

val find : 'a t -> int -> int
(** [find t line] is the slot index of [line], inserting a fresh
    [\[0, infinity)] interval with payload [empty] if absent. Slot indices
    stay valid until the next insertion (they are positions in the
    open-addressed arrays), so they must not be cached across mutating calls
    — use them immediately. *)

val find_existing : 'a t -> int -> int
(** [find_existing t line] is the slot index of [line], or [-1] if the line
    has no slot (a negative [line] never has one). Never inserts, so the
    read paths leave the table, and every copy of it, as they found it. *)

val lo : 'a t -> int -> int
val hi : 'a t -> int -> int
(** The bounds at a slot index returned by {!find} or {!find_existing}
    (never [-1]) of a table from {!create}. *)

val raise_lo : 'a t -> int -> int -> unit
(** [raise_lo t slot s] raises the slot's lower bound to [s] if higher. *)

val lower_hi : 'a t -> int -> int -> unit
(** [lower_hi t slot s] lowers the slot's upper bound to [s] if lower. *)

val data : 'a t -> int -> 'a
val set_data : 'a t -> int -> 'a -> unit
(** The payload at a slot index returned by {!find} or {!find_existing}
    (never [-1]). *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** [fold f t acc] folds [f line payload] over every line with a slot, in
    unspecified order. *)

val length : 'a t -> int
(** Number of lines with an interval (every line {!find} has inserted since
    the table was created or last cleared). *)

val clear : 'a t -> unit
(** Removes every line (keeping the capacity): the table is then as
    {!create} left it. Slot indices from before are invalid. *)
