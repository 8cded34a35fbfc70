(** Worker process lifecycle: spawning supervised workers in their own
    process groups, killing and reaping them, retry backoff, and the
    self-inflicted fault plans behind [--fleet-chaos]. *)

(** {1 Chaos — self fault injection}

    The fleet's failure handling is exercised in CI by injecting the faults
    it claims to survive: [kill] SIGKILLs a worker's process group mid-shard,
    [hang] makes a worker stop heartbeating (exercising the heartbeat
    timeout), [torn] truncates the shard checkpoint the coordinator sends
    (exercising the {!Transport.msg.Refused} path). Each field is the
    per-assignment probability of that fault. *)

type chaos = { kill : float; hang : float; torn : float }

val no_chaos : chaos

val parse_chaos : string -> chaos
(** Parses ["kill:0.3,hang:0.1,torn:0.2"] — any subset of modes, in any
    order; the empty string is {!no_chaos}. Raises [Invalid_argument] on an
    unknown mode or a probability outside [0,1]. *)

type plan = { kill_after : float option; hang : bool; torn : bool }
(** The faults planned for one shard assignment: coordinator-side SIGKILL
    after [kill_after] seconds, the worker's channel stalled (its messages
    dropped until the heartbeat timeout fires), the shard checkpoint
    truncated in transit. *)

val injects : plan -> bool
(** Whether the plan injects any fault — such an attempt's failure is
    expected and must not count toward poison-shard quarantine. *)

val plan : Random.State.t -> chaos -> plan
(** Draws one assignment's plan. Always consumes the same number of PRNG
    draws regardless of the probabilities, so the fault schedule is a pure
    function of the chaos seed and the assignment sequence number. *)

(** {1 Retry backoff} *)

val backoff : base:float -> cap:float -> attempt:int -> float
(** Capped exponential delay before retrying a failed shard:
    [min cap (base * 2^(attempt-1))] with [attempt = 1] the first retry. *)

(** {1 Process control} *)

type proc = {
  pid : int;
  to_child : Unix.file_descr;  (** coordinator writes [Assign]/[Preempt] here *)
  from_child : Unix.file_descr;  (** worker's [Heartbeat]/[Result] frames *)
}

exception Spawn_failed of string

val spawn : argv:string array -> proc
(** Forks and execs [argv.(0)] with the child's stdin/stdout replaced by
    fresh pipes and the child in its own session (hence its own process
    group — one negative-pid signal reaches it and any grandchildren, and a
    terminal SIGINT to the coordinator does not). Raises {!Spawn_failed}
    when the executable is missing or the fork fails — the coordinator
    degrades to fewer workers rather than aborting. *)

val kill_group : ?signal:int -> proc -> unit
(** Signals the worker's whole process group (default SIGKILL); falls back
    to the single pid if the group is already gone. Never raises. *)

type exit_status = Exited of int | Signaled of int | Running

val reap : proc -> exit_status
(** Non-blocking [waitpid]; a worker already reaped (or stolen by another
    wait) reports [Exited 0]. *)

val wait_reap : ?grace:float -> proc -> exit_status
(** Polls {!reap} for up to [grace] seconds (default 2), then SIGKILLs the
    group and waits for real. The worker is guaranteed gone on return. *)
