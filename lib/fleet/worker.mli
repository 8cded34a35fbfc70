(** The worker side of fleet mode: the protocol loop a spawned
    [jaaru fleet-worker] process runs around its shard explorations.

    One thread. Idle, the worker waits in [select] on stdin (read through
    the same {!Transport.reader} the coordinator uses) until an [Assign]
    arrives or the next heartbeat is due; its first, idle beat (shard [-1])
    doubles as the ready handshake the coordinator waits for before
    assigning work. Exploring, it beats only from [tick], which the shard's
    scenario calls at the start of every [pre] and [post]: a heartbeat means
    replay progress, so a recovery that spins without returning to the
    explorer stops the beats and the coordinator's heartbeat timeout kills
    the worker. In a worker, the timeout therefore also bounds the wall time
    of one replay.

    Coordinator death — EOF on stdin or a broken pipe — is treated as
    preempt-then-quit, so an orphaned worker stops promptly instead of
    exploring into the void. *)

val serve :
  ?heartbeat_period:float ->
  on_preempt:(unit -> unit) ->
  run:
    (tick:(unit -> unit) -> shard:int -> attempt:int -> payload:string -> (string, string) result) ->
  unit ->
  unit
(** Serves until the coordinator closes the pipe. [run] explores one shard
    checkpoint, given as its bytes ({!Jaaru.Checkpoint.of_string}), and
    returns [Ok payload] (the result checkpoint's bytes, sent back as
    [Result]) or [Error reason] (sent as [Refused] — the assignment could
    not start, e.g. a torn shard checkpoint). An exception from [run] is
    also reported as [Refused] rather than killing the process; the
    coordinator decides whether to retry.

    [run] must call [tick] at the start of every [pre] and [post] of the
    scenario it explores. [tick] costs one clock read unless a beat is due or
    the call is the 256th since the last such read; then it sends the beat if
    due and reads stdin, calling [on_preempt] for a [Preempt] and for EOF or
    a broken pipe, so a preempt lands within a few replays. A [Preempt] read
    together with, and behind, the [Assign] it follows applies to that shard:
    [on_preempt] is called at the shard's first [tick], after [run] has
    cleared any stale interrupt, so the shard answers after its first replay.
    [tick] is safe to call from several domains (one polls, the others skip)
    and never raises. [on_preempt] must only set a flag the exploration
    polls, such as {!Jaaru.Explorer.request_interrupt}. *)
