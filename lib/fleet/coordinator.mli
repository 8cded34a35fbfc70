(** The fleet coordinator: exhaustive exploration fanned out over supervised
    worker processes, merged back deterministically.

    The coordinator runs no program code: every replay happens in a spawned
    worker process. A run starts with one shard, the root
    {!Jaaru.Choice.root}, sent with a [Preempt] right behind its [Assign],
    so the worker answers after its first replay; the remainder it returns
    is shattered ({!Jaaru.Choice.split_prefix}) into roughly [4 * workers]
    shards — each a slice of the frontier with nothing explored yet (so
    merging never double-counts). Each shard is sent as the bytes of a
    {!Jaaru.Checkpoint} with the real run's fingerprint, in an [Assign] frame
    of the {!Transport} protocol; the worker resumes it and returns its
    outcome as checkpoint bytes in a [Result] frame. The coordinator writes
    no files.

    {b Determinism.} Partial work is merged {e only} when a [Result] frame
    arrives; a worker that crashes, hangs or is killed mid-shard contributes
    nothing and its whole shard is requeued, so every leaf of the choice
    tree is attributed exactly once no matter how many attempts failed.
    Combined with {!Jaaru.Explorer.merge_outcomes} being partition-
    independent, an exhaustive fleet run's report is byte-identical to the
    single-process [jaaru check] report — for every worker count, however
    many attempts failed. (Runs cut short by [max_executions] carry the same
    caveat as [jobs > 1]: each shard is capped independently.)

    {b Robustness.} Heartbeat timeouts detect hangs — a worker beats on
    replay progress ({!Worker.serve}), so a recovery that spins without
    returning to the explorer is one; nonzero exits, signals and EOFs detect
    crashes, a recovery that calls [exit] among them, on any path; failed
    shards are requeued with capped exponential backoff; a shard that keeps
    killing workers is quarantined after [quarantine_after] failures and
    reported rather than retried forever. A poison path among the root's
    first replays quarantines the root, so nothing is explored, but the
    coordinator still returns. Work stealing: when workers sit idle with
    nothing assignable, the longest-running busy worker is preempted and the
    remainder it returns is shattered into new shards.

    {b No worker, no exploration.} With no worker process to run on —
    [worker_argv = None], or every slot disabled after [spawn_attempts]
    consecutive failed spawns — the run stops with every unfinished shard in
    [remaining]; resuming that outcome ([jaaru check --resume]) finishes it
    in one process.

    {b Faults staged from outside.} The coordinator injects no faults of
    its own: its failure paths are exercised by workers that really die,
    stop beating or refuse their shard (the tests' fake worker, and
    signals sent to real workers by the fleet smoke script).

    {b Protocol errors.} A [Result] or [Refused] frame naming a shard other
    than the one its worker holds is handled like a dead worker: the worker
    is killed and its shard requeued. *)

type config = {
  workers : int;  (** worker processes to supervise *)
  heartbeat_timeout : float;  (** seconds without a beat before a kill *)
  quarantine_after : int;  (** failures of one shard before quarantine *)
  spawn_attempts : int;  (** consecutive spawn failures before a slot is disabled *)
  worker_argv : string array option;
      (** argv of a worker process ([jaaru fleet-worker CASE flags…]);
          [None] means no worker: nothing is explored and the root remains *)
  log : string -> unit;  (** progress/supervision event lines *)
}

val default : scratch:string -> config
(** [scratch] is ignored: shards travel in frames, so the coordinator needs
    no directory. It stays only so existing callers keep compiling. *)

type fleet_stats = {
  shards : int;
  workers_configured : int;
  workers_effective : int;  (** after spawn-failure degradation *)
  spawns : int;
  spawn_failures : int;
  assignments : int;
  retries : int;
  steals : int;
  quarantined : (int * string) list;  (** shard id and last failure, sorted *)
}

val pp_fleet : Format.formatter -> fleet_stats -> unit

type result = {
  outcome : Jaaru.Explorer.outcome;
      (** merged, {!Jaaru.Explorer.pp_report}-ready; its [frontier] is
          [remaining] *)
  fleet : fleet_stats;
  remaining : string list;
      (** encoded prefixes of unexplored shards (quarantined, or unfinished
          at an interrupt or with no worker left) — the frontier of an
          aggregate resume checkpoint *)
  interrupted : bool;
}

val run :
  fleet:config -> config:Jaaru.Config.t -> scenario:Jaaru.Explorer.scenario -> result
(** Runs the fleet to completion, quarantine-exhaustion, the loss of every
    worker slot, or interrupt
    ({!Jaaru.Explorer.request_interrupt} — the first request preempts all
    workers and collects partial results for up to a grace period; a second
    kills them immediately). *)
