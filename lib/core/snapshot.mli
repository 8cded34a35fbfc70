(** Failure-point snapshots: resumable captures of the persistent side of a
    context, taken the first time an execution reaches a failure point, so
    that every later replay of the same crash subtree skips re-executing the
    pre-failure program and runs only recovery.

    This is the reproduction's stand-in for Jaaru's fork-based rollback
    (paper §4): where the original forks the process at the failure point and
    resumes children from the frozen image, we capture the replay-relevant
    state — the execution stack, the sequence counter, the per-thread TSO
    buffers, the trace ring — at a {!Choice.point} on the decision path. A
    replay that passes through the point is guaranteed to reach the
    identical state, so the explorer fast-forwards the choice cursor to the
    point's depth and resumes at the crash.

    Outcomes are byte-identical with snapshots on or off: the state restored
    is exactly the state a full replay would recompute. Buffered-drain
    nondeterminism stays a live {!Choice.Drain} decision per non-empty
    captured buffer; the chosen prefixes are evicted into the snapshot's
    {e drained master}, a private copy of the crash that keeps the evictions
    of earlier restores, so a restore evicts only the entries the master
    lacks. The pre-failure reports a skipped replay would have produced are
    contributed by the (always-executed) first full replay of that decision
    path, then deduplicated by the explorer's merge.

    Caches are per-worker and never shared across domains. *)

type master
(** A buffered crash's drained master: a private, unbounded copy of the top
    record, private copies of the threads, and how many entries each thread
    has evicted so far. Built at the first restore that evicts anything. *)

type t = private {
  point : Choice.point;
      (** Where the crash happens: on the taken [Failure_point] cell
          ([alt = 1]) for injected failures, on the last consumed cell for
          {!Ctx.crash}. *)
  stack : Exec.Exec_record.t list;
      (** The execution stack as bounded views, top first, never mutated:
          the top view shares the capturing record's line logs up to
          {!seq}; {!materialize} makes fresh views per restore. *)
  seq : int;
      (** The stack's store/flush sequence counter ({!Exec.Exec_stack.cur_seq})
          at the capture. *)
  threads : Tso.Thread_state.t list;
      (** Per-thread TSO state (store/flush buffers, timestamps) as
          captured, never mutated. {!Ctx} captures only the threads whose
          store buffer holds entries, so none under eager eviction. Their
          lengths give the [Drain] decisions. *)
  trace : Trace.t;  (** The trace ring as of the capture. *)
  failure_count : int;  (** Before the crash increments it. *)
  fp_count : int;
  rng : int;  (** Schedule-fuzzing PRNG state. *)
  last : string;
  crash_label : string option;
      (** The flush label for injected failures, [None] for {!Ctx.crash}. *)
  mutable master : master option;
      (** The drained master; dropped with the snapshot. *)
}

val capture :
  point:Choice.point ->
  stack:Exec.Exec_stack.t ->
  threads:Tso.Thread_state.t list ->
  trace:Trace.t ->
  failure_count:int ->
  fp_count:int ->
  rng:int ->
  last:string ->
  crash_label:string option ->
  t
(** Captures the live state, including the stack's sequence counter, into an
    immutable snapshot. Every record becomes a bounded view
    ({!Exec.Exec_record.snapshot_view}): line intervals copied, line logs
    shared, the top record's bounded at the capture-time sequence number
    (the capturing replay keeps writing into it). Threads and the trace
    ring are copied. *)

val materialize : t -> keep:int array -> Exec.Exec_record.t list * int
(** The execution stack (top first) and sequence counter of the snapshot's
    crash after the drain that evicts the oldest [keep.(i)] store-buffer
    entries of the [i]-th of {!threads}, thread after thread, as the live
    crash does. Every record is a fresh view, so the caller may refine its
    line intervals. With nothing to evict these are views of the snapshot
    itself. Otherwise the master is brought to [keep] by evicting only the
    missing entries, and the top is a view of it bounded at its sequence
    counter. The master is rebuilt from the snapshot first when it cannot
    get there by evicting more: when a thread has evicted past its count,
    or a thread after the first one that must move has evicted anything
    (its entries would carry the wrong seqs). *)

(** {1 Per-worker cache} *)

type cache

val create_cache : unit -> cache

val mem : cache -> Choice.point -> bool
(** Whether the point's snapshot is already cached — checked before paying
    for a copy at an already-captured failure point. Looks at one slot. *)

val store : cache -> t -> unit
(** Puts the snapshot in its depth's slot, displacing the one there, and
    evicts the shallowest entry over the size cap; a dropped snapshot takes
    its master with it. Displacement and eviction only ever cost wall time: a missing snapshot is re-captured by the next
    full replay through its point. *)

val find : cache -> Choice.t -> t option
(** The deepest cached snapshot whose point is [`On_path] for the upcoming
    replay (call between {!Choice.begin_replay} and the replay), dropping
    [`Dead] ones on the way down. [None] means this replay must execute from
    the start — which is exactly what (re)captures snapshots for its
    subtree. *)

val clear_cache : cache -> unit
(** Drops every cached snapshot and its master (memory-pressure shedding — see
    [Config.mem_budget]). Sound for the same reason eviction is: a dropped
    snapshot is re-captured by the next full replay of its path. *)
