(** Flat per-cache-line interval state: an open-addressed hash table from
    line number to a persistence interval [\[lo, hi)], stored unboxed in
    parallel [int] arrays.

    This replaces the [(int, Interval.t) Hashtbl.t] in execution records.
    Every line's interval was previously a two-field mutable record behind a
    hashtable bucket — three heap objects per touched line, chased on every
    read-from refinement and copied one by one at every snapshot capture.
    Here a lookup is a probe over an [int array] and {!copy} (the snapshot
    path) is three [Array.blit]s.

    Intervals follow {!Interval}'s convention: a fresh line starts at
    [\[0, Interval.infinity)], [lo] only ever rises, [hi] only ever falls. *)

type t

val create : unit -> t
val copy : t -> t

val find : t -> int -> int
(** [find t line] is the slot index of [line], inserting a fresh
    [\[0, infinity)] interval if absent. Slot indices stay valid until the
    next insertion (they are positions in the open-addressed arrays), so
    they must not be cached across mutating calls — use them immediately. *)

val lo : t -> int -> int
val hi : t -> int -> int
(** Interval bounds at a slot index returned by {!find}. *)

val raise_lo : t -> int -> int -> unit
(** [raise_lo t slot s] raises the slot's lower bound to [s] if higher. *)

val lower_hi : t -> int -> int -> unit
(** [lower_hi t slot s] lowers the slot's upper bound to [s] if lower. *)

val length : t -> int
