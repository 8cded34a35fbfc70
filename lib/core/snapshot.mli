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
    is exactly the state a full replay would recompute, buffered-drain
    nondeterminism stays a live {!Choice.Drain} decision replayed on the
    restored threads, and the pre-failure reports a skipped replay would
    have produced are contributed by the (always-executed) first full replay
    of that decision path, then deduplicated by the explorer's merge.

    Caches are per-worker and never shared across domains. *)

type t = {
  point : Choice.point;
      (** Where the crash happens: on the taken [Failure_point] cell
          ([alt = 1]) for injected failures, on the last consumed cell for
          {!Ctx.crash}. *)
  stack : Exec.Exec_record.t list;
      (** Master copies of the execution stack, top first; never mutated —
          {!materialize} copies them again per restore. *)
  seq : int;
      (** The stack's store/flush sequence counter ({!Exec.Exec_stack.cur_seq})
          at the capture. *)
  threads : Tso.Thread_state.t list;
      (** Per-thread TSO state (store/flush buffers, timestamps); empty
          buffers under eager eviction, live ones under buffered. *)
  trace : Trace.t;  (** The trace ring as of the capture. *)
  failure_count : int;  (** Before the crash increments it. *)
  fp_count : int;
  rng : int;  (** Schedule-fuzzing PRNG state. *)
  last : string;
  crash_label : string option;
      (** The flush label for injected failures, [None] for {!Ctx.crash}. *)
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
(** Deep-copies the live state, including the stack's sequence counter, into
    an immutable master snapshot. The top execution record is fully cloned
    (the capturing replay keeps writing into the original), buried records
    share their frozen line logs. *)

val materialize : deep_top:bool -> t -> Exec.Exec_record.t list * Tso.Thread_state.t list
(** Fresh mutable copies of the stack records and thread states for one
    restore — the master stays pristine for the next hit. [deep_top] clones
    the top record's line logs too; required under buffered eviction
    (the drain at the restored crash pushes into them), skippable under
    eager (the buffers are empty, so the restored top only ever sees
    interval refinement, which works on the always-cloned lines). *)

(** {1 Per-worker cache} *)

type cache

val create_cache : unit -> cache

val mem : cache -> Choice.point -> bool
(** Whether the point's snapshot is already cached — checked before paying
    for a copy at an already-captured failure point. Looks at one slot. *)

val store : cache -> t -> unit
(** Puts the snapshot in its depth's slot, displacing the one there, and
    evicts the shallowest entry over the size cap. Displacement and eviction
    only ever cost wall time: a missing snapshot is re-captured by the next
    full replay through its point. *)

val find : cache -> Choice.t -> t option
(** The deepest cached snapshot whose point is [`On_path] for the upcoming
    replay (call between {!Choice.begin_replay} and the replay), dropping
    [`Dead] ones on the way down. [None] means this replay must execute from
    the start — which is exactly what (re)captures snapshots for its
    subtree. *)

val clear_cache : cache -> unit
(** Drops every cached snapshot (memory-pressure shedding — see
    [Config.mem_budget]). Sound for the same reason eviction is: a dropped
    snapshot is re-captured by the next full replay of its path. *)
