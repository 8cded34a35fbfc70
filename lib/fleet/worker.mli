(** The worker side of fleet mode: the protocol loop a spawned
    [jaaru fleet-worker] process runs around its shard explorations.

    Two threads: the {e main} thread pops assignments off an inbox and
    executes them one at a time via [run]; a {e service} thread owns stdin
    and the heartbeat. It reads stdin through the same {!Transport.reader}
    the coordinator uses, waiting in [select] until the next beat is due;
    it queues [Assign]s, acts on [Preempt]s immediately (the main thread is
    busy inside [run] exactly when a preempt matters), and proves liveness
    every [heartbeat_period] seconds no matter what the main thread is doing
    — its first, idle beat (shard [-1]) doubles as the ready handshake the
    coordinator waits for before assigning work.

    Coordinator death — EOF on stdin or a broken pipe in either direction —
    is treated as preempt-then-quit, so an orphaned worker stops promptly
    instead of exploring into the void. *)

val serve :
  ?heartbeat_period:float ->
  on_preempt:(unit -> unit) ->
  run:(shard:int -> attempt:int -> payload:string -> (string, string) result) ->
  unit ->
  unit
(** Serves until the coordinator closes the pipe. [run] explores one shard
    checkpoint, given as its bytes ({!Jaaru.Checkpoint.of_string}), and
    returns [Ok payload] (the result checkpoint's bytes, sent back as
    [Result]) or [Error reason] (sent as [Refused] — the assignment could
    not start, e.g. a torn shard checkpoint). An exception from [run] is
    also reported as [Refused] rather than killing the process; the
    coordinator decides whether to retry. [on_preempt] must be async-ish
    (set a flag — it is called from the service thread while [run] is in
    flight). *)
