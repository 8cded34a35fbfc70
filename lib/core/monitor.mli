(** The exploration watchdog: one background POSIX thread sampling wall
    clock, the CLI interrupt flag and the GC heap, communicating with worker
    domains exclusively through atomics.

    Responsibilities (each optional, enabled by its knob):

    - {b Run budget} ([wall_deadline], absolute): past it, invoke [on_stop
      Wall_budget] — the explorer's cooperative-stop trigger.
    - {b Checkpoint tick} ([tick_deadline], absolute): past it, invoke
      [on_stop Tick]; the explorer stops the round, checkpoints, and starts
      the next round with a fresh monitor.
    - {b Interrupt} ([interrupt] flag, set by SIGINT/SIGTERM handlers or
      tests): invoke [on_stop Interrupt]. Workers also poll the flag
      directly between replays, so interruption works even when no knob is
      set and {!start} spawns no thread at all.
    - {b Per-execution deadline} ([step_deadline], relative): a worker whose
      current execution has been running longer gets its {!cancel_flag} set;
      the execution's next [Ctx] operation turns that into a
      [Bug.Execution_timeout]. This duty continues even after a stop fired —
      workers still finish their current replays.
    - {b Memory budget} ([mem_budget], bytes, sampled via [Gc.quick_stat]):
      over budget, every worker's shed flag is set (see {!take_shed}); the
      trip disarms until the heap falls below 90% of the budget.

    [on_stop] is invoked at most once per monitor, with the {e first}
    reason observed, from the monitor thread or, for the two deadlines, from
    a worker calling {!check_deadlines}; it must be async-safe-ish (set
    atomics, close a frontier — no blocking). *)

type reason = Interrupt | Wall_budget | Tick

type t

val create :
  workers:int ->
  interrupt:bool Atomic.t ->
  ?wall_deadline:float ->
  ?tick_deadline:float ->
  ?step_deadline:float ->
  ?mem_budget:int ->
  on_stop:(reason -> unit) ->
  unit ->
  t
(** Deadlines are absolute [Unix.gettimeofday] instants except
    [step_deadline], which is seconds relative to each execution's
    {!exec_started}. Raises [Invalid_argument] on [workers <= 0]. *)

val start : t -> unit
(** Spawns the watchdog thread (idempotent). *)

val poll : t -> now:float -> unit
(** One synchronous sample of every duty (interrupt flag, deadlines, per-
    execution cancellation, memory budget) exactly as the watchdog thread
    performs it, against the given clock instant. The thread calls this
    internally; tests call it directly to drive deadline edge cases
    deterministically, without sleeping — [on_stop] still fires at most once
    per monitor, whoever polls. *)

val check_deadlines : t -> unit
(** The run-budget and checkpoint-tick duties of {!poll}, against the
    current clock, for a worker to call between replays. The watchdog thread
    runs only when the exploring domain releases the runtime lock, which a
    busy replay loop does at the runtime's tick (~50 ms), so without this a
    millisecond budget would let thousands of replays run. Reads no clock
    when neither deadline is set. *)

val shutdown : t -> unit
(** Stops and joins the watchdog thread (idempotent; safe if never
    started). Call from [Fun.protect] so a raising exploration cannot leak
    the thread. *)

val exec_started : t -> int -> unit
(** Worker [i] is about to run one execution: stamps the start time and
    clears any stale cancel flag from the previous execution. *)

val exec_finished : t -> int -> unit
(** Worker [i] finished its execution; the deadline no longer applies. *)

val cancel_flag : t -> int -> bool Atomic.t
(** Worker [i]'s cancellation cell — pass it to [Ctx.create ~cancel]. *)

val take_shed : t -> int -> bool
(** Consumes worker [i]'s shed request: [true] at most once per memory-budget
    trip, upon which the worker drops its snapshot cache. *)
