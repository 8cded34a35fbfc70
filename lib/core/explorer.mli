(** The exploration driver (paper Fig. 11, Explore).

    A failure scenario is a pre-failure program plus a recovery program. The
    explorer repeatedly replays the scenario under the {!Choice} stack,
    injecting power failures at flush instructions and branching on every
    load with multiple read-from candidates, until the whole choice tree has
    been visited (or a configured limit is hit). *)

type scenario = {
  name : string;
  pre : Ctx.t -> unit;  (** the pre-failure execution *)
  post : Ctx.t -> unit;
      (** the recovery execution, re-run after every injected failure
          (including failures injected during recovery itself when
          [max_failures > 1]) *)
}

val scenario : name:string -> pre:(Ctx.t -> unit) -> post:(Ctx.t -> unit) -> scenario

val scenario_single : name:string -> (Ctx.t -> unit) -> scenario
(** A program whose one entry point handles both roles, dispatching on
    {!Ctx.in_recovery} — the common main-function structure of real PM
    programs. *)

type outcome = {
  bugs : Bug.t list;  (** deduplicated, in a deterministic sorted order *)
  stats : Stats.t;
  multi_rf : Ctx.multi_rf list;  (** deduplicated debugging reports *)
  perf : Ctx.perf_report list;
      (** deduplicated redundant-flush/fence reports (advisory, not bugs) *)
  findings : Analysis.Report.finding list;
      (** analysis-pass findings across every explored execution, merged with
          the same deterministic discipline as [bugs] (deduplicated, sorted
          with {!Analysis.Report.compare_finding}); empty unless
          [config.analyze] *)
  frontier : string list;
      (** the unexplored subtrees, as encoded prefixes
          ({!Choice.encode_prefix}); [[]] when the run completed. It equals
          the frontier of the checkpoint the same run wrote last, so a caller
          can hand the work on without reading that file. *)
}

val empty : outcome
(** Nothing explored, nothing left: [{ empty with frontier }] is a fresh
    piece of work, e.g. a fleet shard. *)

val to_checkpoint : config:Config.t -> scenario -> outcome -> Checkpoint.t
(** The outcome as a checkpoint of this workload and configuration —
    exactly what {!run} saves, and what [run ~resume] continues from. *)

val of_checkpoint : Checkpoint.t -> outcome
(** Inverse of {!to_checkpoint} (the fingerprint is dropped). *)

val run : ?config:Config.t -> ?resume:Checkpoint.t -> ?checkpoint:string -> scenario -> outcome
(** Explores the scenario exhaustively. Checked-program bugs become entries
    in [outcome.bugs]; {!Choice.Divergence} propagates (it indicates a broken
    test harness, not a program bug).

    {b Survivability.} With [checkpoint:path] the run periodically (every
    [config.checkpoint_every] seconds) and at every stop — including
    completion — atomically writes a {!Checkpoint} of the unexplored
    frontier and the merged reports to [path]; the returned outcome carries
    the same frontier. With [resume:cp] it first
    validates [cp]'s fingerprint against this workload and configuration
    (raising {!Checkpoint.Rejected} on mismatch), seeds the report tables
    and statistics from it, and explores only the checkpointed frontier; an
    interrupted-then-resumed run therefore reports byte-identically
    (see {!pp_report}) to an uninterrupted one, for every [jobs] value and
    with the snapshot layer on or off. A cooperative stop — a SIGINT
    routed through {!request_interrupt}, or an exceeded
    [config.wall_budget] — lets every worker finish its current replay,
    reports the partial outcome with [stats.interrupted] set, and preserves
    the rest of the tree in the checkpoint. [config.step_deadline] cancels
    individual runaway executions as {!Bug.Execution_timeout} bugs, and
    [config.mem_budget] sheds the snapshot caches under memory
    pressure; neither ends the run. Each worker checks the interrupt flag,
    the wall budget, the checkpoint tick and the memory budget between its
    replays ({!Monitor}), and an execution's step deadline at each of its
    [Ctx] operations.

    With [config.jobs > 1] the choice tree is explored by that many OCaml
    domains: each worker replays executions out of a shared {!Frontier} of
    subtree prefixes and donates unexplored sibling subtrees ({!Choice.split})
    whenever a peer runs dry. Reports are deduplicated keeping a
    schedule-independent representative and sorted, so an exhaustive run
    produces byte-identical [bugs]/[multi_rf]/[perf] and identical [stats]
    (other than [wall_time]) for every [jobs] value. Runs cut short by
    [max_executions] or [stop_at_first_bug] may explore a different subset
    of executions depending on [jobs] and timing.

    With [config.snapshot] (the default) each worker keeps a cache of
    failure-point snapshots: the first replay through a failure point
    captures the persistent side of the context, and every later replay of
    that crash subtree restores it and runs only recovery instead of
    re-executing the pre-failure program. The outcome is byte-identical
    (modulo [wall_time]) with snapshots on or off, for every [jobs] value. *)

val request_interrupt : unit -> unit
(** Requests a cooperative stop of every in-flight {!run} in this process:
    workers finish their current replay, the partial outcome is flagged
    [interrupted] and the frontier is checkpointed (when a path was given).
    Async-signal-safe — the CLI calls it from SIGINT/SIGTERM handlers. The
    request is sticky until {!clear_interrupt}, so a signal arriving between
    rounds (or just before [run]) is not lost. *)

val clear_interrupt : unit -> unit
(** Clears a pending {!request_interrupt} — call before a run that must not
    inherit a stale request (tests; the CLI at startup). *)

val interrupts_requested : unit -> int
(** How many times {!request_interrupt} has fired since the last
    {!clear_interrupt}. The CLI escalates on the second request: the first
    SIGINT stops cooperatively (finish replays, checkpoint), a second one
    during the wind-down forces an immediate exit. *)

val merge_outcomes :
  ?config:Config.t -> completed:bool -> interrupted:bool -> outcome list -> outcome
(** Combines the outcomes of {e disjoint} subtree explorations — shard
    results in fleet mode, or a prior checkpoint's outcome plus its
    continuation — with exactly the deduplication and sorting discipline
    {!run} applies across its own workers, so merging shard outcomes of any
    partition of the tree reproduces the single-process reports byte for
    byte. [Stats.exhausted] is recomputed from [completed] (and
    [config.stop_at_first_bug]); [Stats.interrupted] is set from
    [interrupted] — constituent outcomes of capped or preempted shards
    legitimately carry partial flags that must not poison the merge. The
    result's [frontier] is [[]]: constituents' frontiers are work the caller
    reschedules or reports itself. {!run} folds its resume seed and each
    round's workers through this same function. *)

val found_bug : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit

val comparable_outcome : outcome -> outcome
(** The outcome with {!Stats.comparable} applied — everything that is
    allowed to differ between equivalent runs zeroed. *)

val pp_report : Format.formatter -> outcome -> unit
(** [pp_outcome] of {!comparable_outcome}: a rendering that is byte-identical
    across [jobs] values, snapshot settings, and interrupt/resume
    histories of the same exploration — the artifact CI diffs. *)
