(** The stack of executions making up one failure scenario.

    The paper records the sequence of executions that have run against the
    persistent store as a stack [exec]; [top] is the currently-running
    execution and [prev e] the one that failed immediately before [e] began.
    The bottom of the stack is always the {!Exec_record.initial} image.

    The stack also owns the global sequence counter (the paper's σ_curr):
    every sequence number stamps a store or flush taking effect in [top], so
    evictions draw from {!next_seq} and write into {!top} directly. *)

type t

val of_records : seq:int -> Exec_record.t list -> t
(** The stack of the given records (top first), its sequence counter at
    [seq], the value {!cur_seq} had when they were captured. The stack owns
    the records from then on: the snapshot layer passes freshly
    materialised copies. Raises [Invalid_argument] if the list is empty, if
    its bottom is not the {!Exec_record.initial} image, or if its ids do not
    count down by one from the top to 0 (naming the first bad id from the
    bottom). *)

val create : unit -> t
(** [of_records ~seq:0] of the initial image with one fresh execution on top
    of it (the first pre-failure execution). *)

val top : t -> Exec_record.t

val next_seq : t -> int
(** Advances the sequence counter and returns the new value (σ_curr + 1).
    The first number drawn from a fresh stack is 1. *)

val cur_seq : t -> int
(** The last sequence number drawn, without advancing (0 on a fresh
    stack). *)

val nth : t -> int -> Exec_record.t
(** [nth s i] is the record with id [i]: ids are stack positions, 0 being
    the initial image and {!depth} the top. O(1). Raises [Invalid_argument]
    outside [\[0, depth s\]]. *)

val prev : t -> Exec_record.t -> Exec_record.t
(** [prev s e] is the execution immediately below [e] (the record with id
    [id e - 1]). O(1). Raises [Invalid_argument] on the initial record or an
    id above the top. *)

val push_fresh : t -> Exec_record.t
(** Simulates a power failure: pushes and returns a new empty execution on
    top of the stack. Volatile state is the caller's to reset. *)

val depth : t -> int
(** Number of non-initial executions. 1 after {!create}. *)

val to_list : t -> Exec_record.t list
(** Top-first, including the initial record last. *)
