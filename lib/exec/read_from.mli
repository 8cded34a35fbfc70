(** Constraint-refinement read-from analysis (paper Figures 9 and 10).

    [build_may_read_from] computes the set of stores a byte load may observe,
    walking the execution stack and filtering each failed execution's store
    history through its cache line's last-writeback interval. Once the
    exploration has committed to one candidate, [do_read] refines the
    last-writeback intervals of the intervening executions so that later loads
    on the same cache line stay consistent with the observed value. *)

type source = {
  exec : Exec_record.t;  (** execution that performed the store *)
  seq : int option;  (** sequence number; [None] for the current execution *)
  value : int;  (** the byte value *)
  label : string;  (** source label of the store, for bug reports *)
}

val build_may_read_from : Exec_stack.t -> Pmem.Addr.t -> source list
(** All stores the byte load may read from, newest candidates first.

    Store-buffer bypass (Fig. 9 lines 2–3) is not handled here: the caller
    forwards from the loading thread's store buffer first
    ([Tso.Store_buffer]). The newest cache store of the current
    execution wins (lines 4–5); otherwise candidates come from pre-failure
    executions via [ReadPreFailure] (lines 7–13). The result is never empty:
    the initial all-zero image backstops the recursion. *)

val do_read : Exec_stack.t -> Pmem.Addr.t -> source -> unit
(** Commits the load to one source and refines last-writeback intervals of
    previous executions (Fig. 10): each failed execution newer than the
    source must not have flushed the line after its first store to the byte,
    and the source execution's line must have been written back within
    [(seq, next-store-seq)). *)

val pp_source : Format.formatter -> source -> unit
