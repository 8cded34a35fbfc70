(** Constraint-refinement read-from analysis (paper Figures 9 and 10).

    A recovery load reads each byte from the set of stores it may observe:
    the newest store of the current execution if it has one, else the stores
    of the failed executions below it, each filtered through its cache
    line's last-writeback interval ([ReadPreFailure]). Once the load has
    committed to one candidate, the line intervals of the executions it
    looked through are refined so that later loads of the same line stay
    consistent with the observed value ([UpdateRanges]).

    A {!view} does this for one cache line over the line logs of
    {!Exec_record}: it fetches each execution record's line slot at most
    once per load. A load first tries the {e word path} ({!load}), which
    reads every byte from one store in one step; the paper's per-byte walk
    ({!read}, {!candidates}, {!commit}) runs over the per-byte projection of
    the logs when that does not apply. A byte with a single candidate is
    read and refined without allocating. *)

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

val load : view -> int -> int -> bool
(** [load v off width] reads the [width] bytes from offset [off] of the
    view's line, which must all lie in it, in one step when that is exactly
    what the per-byte walk would do: from the top record down, records
    writing none of the bytes are skipped, and the newest store writing any
    of them must write all of them and either belong to the top record or
    precede the line's last writeback in its own record. Its bytes are then
    each byte's only candidate and the refinement is a no-op (past the
    bottom record, every byte reads the initial zero). On [true] the value
    is {!loaded}; on [false] nothing changed, and the caller reads the
    bytes one at a time with {!read}. Store-buffer forwarding is the
    caller's, as for {!read}. *)

val loaded : view -> int
(** The value of the last {!load} that returned [true]. *)

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

val pp_source : Format.formatter -> source -> unit
