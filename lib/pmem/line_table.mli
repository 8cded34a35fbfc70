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
    {!copy} (the snapshot path) is three array copies. *)

val infinity : int
(** Upper bound representing "no constraint" ([max_int]). *)

type t

val create : unit -> t
val copy : t -> t
(** An independent copy: refinements of either table never reach the other. *)

val find : t -> int -> int
(** [find t line] is the slot index of [line], inserting a fresh
    [\[0, infinity)] interval if absent. Slot indices stay valid until the
    next insertion (they are positions in the open-addressed arrays), so
    they must not be cached across mutating calls — use them immediately. *)

val lo : t -> int -> int
val hi : t -> int -> int
(** The bounds at a slot index returned by {!find}. *)

val raise_lo : t -> int -> int -> unit
(** [raise_lo t slot s] raises the slot's lower bound to [s] if higher. *)

val lower_hi : t -> int -> int -> unit
(** [lower_hi t slot s] lowers the slot's upper bound to [s] if lower. *)

val length : t -> int
(** Number of lines with an interval (every line {!find} has inserted). *)
