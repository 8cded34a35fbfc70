(** Constraint-refinement read-from analysis (paper Figures 9 and 10).

    A recovery load reads each byte from the set of stores it may observe:
    the newest store of the current execution if it has one, else the stores
    of the failed executions below it, each filtered through its cache
    line's last-writeback interval ([ReadPreFailure]). Once the load has
    committed to one candidate, the line intervals of the executions it
    looked through are refined so that later loads of the same line stay
    consistent with the observed value ([UpdateRanges]).

    A {!view} does this for the bytes of one cache line: it fetches each
    execution record's line slot at most once, when a byte first needs it,
    and a byte with a single candidate is read and refined without
    allocating. *)

type source = {
  exec : Exec_record.t;  (** execution that performed the store *)
  seq : int option;  (** sequence number; [None] for the current execution *)
  value : int;  (** the byte value *)
  label : string;  (** source label of the store, for bug reports *)
}

type view
(** One cache line of an execution stack, reusable across loads. *)

val view : Exec_stack.t -> view
(** A view of the given stack, on no line until {!open_line}. *)

val open_line : view -> int -> unit
(** [open_line v line] points the view at cache line number [line] of the
    stack as it is now, dropping what it fetched before. Call it at the
    start of every load and when a load crosses into the next line: a store
    or a crash between loads may add lines or records. *)

val read : view -> int -> int
(** [read v off] reads the byte at offset [off] of the view's line.

    Store-buffer bypass (Fig. 9 lines 2–3) is not handled here: the caller
    forwards from the loading thread's store buffer first. The newest store
    of the current execution wins (lines 4–5) with no constraint to record.
    Otherwise the candidates come from the failed executions (lines 7–13),
    the initial all-zero image backstopping the walk. If there is exactly
    one, [read] commits to it (see {!commit}) and returns its value.
    Otherwise it returns [-1], and {!candidates} lists them for the caller
    to choose one and pass it to {!commit}. *)

val candidates : view -> source list
(** The candidates of the last [read] that returned [-1], newest first
    (at least two). *)

val commit : view -> int -> source -> unit
(** [commit v off src] commits the byte at offset [off] to [src] and refines
    the line intervals (Fig. 10): each failed execution newer than the
    source must not have written the line back after its first store to the
    byte, and the source execution's line must have been written back
    within [\[seq, next-store-seq)]. A no-op for a store of the current
    execution. *)

(** {1 List form}

    The same walk over a one-off view, one byte at a time. *)

val build_may_read_from : Exec_stack.t -> Pmem.Addr.t -> source list
(** All stores the byte load may read from, newest first; never empty. A
    store of the current execution comes alone, with [seq = None]. Changes
    nothing. *)

val do_read : Exec_stack.t -> Pmem.Addr.t -> source -> unit
(** {!commit} for one byte address. *)

val pp_source : Format.formatter -> source -> unit
