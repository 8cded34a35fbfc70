(** The limits an exploration enforces on itself. Nothing runs in the
    background: each worker checks them at points its replay loop already
    visits.

    - {b Interrupt}, {b run budget} and {b checkpoint tick}: {!stop_reason},
      called between replays, names the first stop that applies; the
      explorer turns it into its cooperative stop.
    - {b Memory budget}: {!shed}, called between replays, tells the worker
      when to drop its snapshot cache.
    - {b Per-execution deadline} ([Config.step_deadline]) lives in [Ctx]:
      [Ctx.create] derives the execution's absolute deadline, and the first
      [Ctx] operation past it raises [Bug.Execution_timeout].

    Every check takes the clock as [~now], so tests drive edge cases without
    sleeping. *)

type reason = Interrupt | Wall_budget | Tick

type t
(** One worker's view of a round's limits: the shared interrupt flag and
    deadlines, plus the worker's own memory-budget state. *)

val create :
  interrupt:bool Atomic.t ->
  ?wall_deadline:float ->
  ?tick_deadline:float ->
  ?mem_budget:int ->
  unit ->
  t
(** Deadlines are absolute [Unix.gettimeofday] instants; [mem_budget] is in
    bytes. *)

val stop_reason : t -> now:(unit -> float) -> reason option
(** The first stop that applies: a set interrupt flag outranks an expired run
    budget, which outranks an expired checkpoint tick. Calls [now] only when
    a deadline is set. Stops are levels, not events: once a deadline has
    passed every call reports it, and the explorer keeps the first reason
    any worker saw. *)

val shed : t -> now:(unit -> float) -> heap:(unit -> int) -> bool
(** Whether the worker should drop its snapshot cache now. Without a memory
    budget it is [false] and calls nothing. Otherwise it samples [heap ()]
    (bytes) at most once per 50 ms of [now], the first time at the first
    call, and is [true] once per trip over the budget: the trip disarms until
    a sample falls below 90% of the budget. *)

val heap_bytes : unit -> int
(** The major heap's size in bytes, from [Gc.quick_stat]: what {!shed}
    samples in a real run. *)
