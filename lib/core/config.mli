(** Model-checker configuration. *)

type evict_policy =
  | Eager
      (** The store buffer drains after every instruction. Deterministic and
          cheap; the store buffer is architecturally invisible to a single
          thread, so this is the default for crash-consistency checking. *)
  | Buffered
      (** Entries drain only at mfence / locked-RMW / execution end, plus a
          nondeterministic partial drain at each injected failure — exercising
          crashes that lose buffered stores, flushes and fences. *)

type t = {
  max_failures : int;
      (** Maximum number of injected power failures in one scenario (the
          paper's bound on the depth of the [exec] stack). Default 1. *)
  evict_policy : evict_policy;
  max_steps : int;
      (** Per-execution operation budget; exceeding it is reported as the
          "stuck in an infinite loop" bug manifestation. *)
  max_executions : int;
      (** Safety valve on the total number of explored executions. *)
  jobs : int;
      (** Number of OCaml domains exploring the choice tree in parallel.
          [1] (the default) explores on the calling domain only. Exhaustive
          explorations report identical bugs, multi-rf and perf reports and
          identical statistics (other than [wall_time]) for every [jobs]
          value; runs cut short by [max_executions] or [stop_at_first_bug]
          may explore a different subset of executions per [jobs] value.
          With [jobs > 1] the scenario's [pre]/[post] closures run on
          several domains concurrently, so they must not share mutable
          OCaml state — all the bundled workloads derive their state from
          the per-execution {!Ctx.t}. *)
  stop_at_first_bug : bool;
  report_multi_rf : bool;
      (** Record loads that can read from more than one store — the paper's
          missing-flush debugging aid (§4, Debugging support). *)
  schedule_seed : int option;
      (** [None]: deterministic round-robin scheduling of {!Ctx.parallel}
          fibers (the paper does not explore schedules). [Some seed]: a
          deterministic seeded schedule — run the checker under many seeds to
          fuzz for concurrency bugs, the future-work use the paper names. *)
  region_base : Pmem.Addr.t;
  region_size : int;  (** Size in bytes of the simulated PM pool. *)
  trace_depth : int;
      (** How many recent events to keep for bug reports; [<= 0] disables
          tracing entirely (no event is recorded or formatted). The CLI
          sets 0 wherever it prints no trace: [check] without [--trace],
          [fleet] and [pbt]. *)
  analyze : bool;
      (** Run the full analysis-pass suite ({!Analysis.Missing_flush},
          {!Analysis.Torn_write}, {!Analysis.Redundant}, and — see
          [analyze_hb] — {!Analysis.Race}, {!Analysis.Robustness}) over
          every explored execution and surface the findings on the outcome.
          Off by default. The redundant-flush/fence pass behind the
          outcome's [perf] reports (the performance-bug extension the paper
          suggests in §5.1) runs either way. *)
  analyze_hb : bool;
      (** With [analyze]: also run the happens-before passes
          ({!Analysis.Race}, {!Analysis.Robustness}) over a shared
          {!Analysis.Hb} view of the event stream. On by default; turning it
          off isolates the sanitizer-only overhead (the bench's [analysis]
          section uses this axis). Ignored when [analyze] is off. *)
  suppress : string list;
      (** Store labels whose analysis findings are acknowledged noise (e.g.
          a volatile-by-design lock word living on a persistent cache line).
          See {!Analysis.Engine.create}. *)
  snapshot : bool;
      (** Capture a resumable snapshot at each failure point the search
          considers, so replays of the crash subtree skip re-executing the
          pre-failure program and run only recovery (the reproduction of the
          paper's fork-based rollback — see {!Snapshot}). On by default;
          outcomes are byte-identical (modulo wall time) either way, so
          turning it off is only a debugging / benchmarking aid. *)
  memo : bool;
      (** Ignored. Crash-state memoization was removed; the field stays only
          because the macro benchmark suite still sets it. A later benchmark
          change removes it together with the suite's [memo.*] metrics and
          its [memo-off] variant. *)
  wall_budget : float option;
      (** Wall-clock budget in seconds for the whole run. The first worker to
          see it expired at a replay boundary requests a cooperative stop:
          every worker finishes its current replay, the unexplored frontier
          is preserved (and
          checkpointed when a checkpoint path is configured), and the partial
          outcome is reported with [Stats.interrupted] set. [None] (the
          default): unbounded. *)
  step_deadline : float option;
      (** Per-execution wall-clock deadline in seconds. Catches workloads
          that diverge while still issuing [Ctx] operations slower than
          [max_steps] counts them — or with [max_steps] effectively unbounded.
          A tripped deadline cancels only that execution, recording a
          {!Bug.Execution_timeout}; the exploration continues. Enforced by
          the first [Ctx] operation past the deadline, so a loop that never
          calls into [Ctx] cannot be cancelled (cancellation is
          cooperative). [None]: no deadline. *)
  mem_budget : int option;
      (** Soft memory budget in bytes. Each worker samples the heap size
          from [Gc] statistics between replays, at most every 50 ms. When it
          exceeds the budget, the worker sheds its snapshot cache — correct
          but slower, never aborting — and the shed count surfaces as
          [Stats.sheds]. [None]: never shed. *)
  checkpoint_every : float;
      (** Seconds between periodic checkpoints when the explorer is given a
          checkpoint path; ignored otherwise. Default 30. *)
}

val default : t
(** [max_failures = 1], [Eager] eviction, 2M steps, 100k executions, 64 KiB
    region at 0x1000, multi-rf reporting on. *)

val pp : Format.formatter -> t -> unit
