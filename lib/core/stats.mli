(** Exploration statistics — the raw material of the paper's Fig. 14. *)

type t = {
  executions : int;  (** complete scenario executions explored (JExec) *)
  failure_points : int;
      (** failure-injection points in the original (no-failure) execution
          (FPoints) *)
  rf_decisions : int;
      (** read-from decision points with more than one candidate created
          during the whole exploration *)
  multi_rf_loads : int;  (** distinct loads flagged by the debugging aid *)
  stores : int;  (** byte stores of the original execution *)
  flushes : int;  (** line flushes of the original execution *)
  findings : int;
      (** distinct analysis findings across the exploration (0 unless
          [Config.analyze]) *)
  memo_hits : int;
  memo_misses : int;
  memo_saved : int;
      (** Always 0. Crash-state memoization was removed; these three fields
          stay only because the macro benchmark suite still reads them and the
          checkpoint format still carries them. A later benchmark change
          removes them together with the suite's [memo.*] metrics and its
          [memo-off] variant. *)
  snapshot_hits : int;
      (** replays resumed from a cached failure-point snapshot instead of
          re-executing from the start (0 unless [Config.snapshot]) *)
  snapshot_misses : int;
      (** replays that found no usable snapshot and ran from the start *)
  sheds : int;
      (** times the watchdog monitor tripped [Config.mem_budget] and workers
          dropped their snapshot caches (0 unless a budget is set) *)
  wall_time : float;  (** seconds spent exploring (JTime) *)
  exhausted : bool;
      (** whether the search space was fully explored (false when a limit or
          stop-at-first-bug cut it short) *)
  interrupted : bool;
      (** whether a cooperative stop (signal or [Config.wall_budget]) cut the
          run short — implies [not exhausted]; resume from a checkpoint to
          continue *)
}

val zero : t
(** The identity of {!merge}: all counters 0, [exhausted = true]. *)

val merge : t -> t -> t
(** Combines the statistics of workers that explored disjoint subtrees:
    [executions], [rf_decisions] and the snapshot counters add; the original-execution counters
    ([failure_points], [stores], [flushes]) and the post-merge totals
    ([multi_rf_loads], [findings]) take the max; [wall_time] takes the max
    (workers ran concurrently); [exhausted] ands; [interrupted] ors.
    Associative and commutative, with {!zero} as identity. *)

val comparable : t -> t
(** The statistics with every schedule-dependent counter zeroed: [wall_time],
    the snapshot-cache traffic ([snapshot_hits]/[snapshot_misses], whose
    split across workers depends on the work partition) and [sheds] (a
    wall-clock-dependent memory-pressure artifact). Two exhaustive runs
    of the same scenario must have equal [comparable] statistics whatever
    their [jobs] and [snapshot] settings. *)

val executions_per_fp : t -> float
(** The paper's §5.2 ratio; 0 when there were no failure points. *)

val pp : Format.formatter -> t -> unit
