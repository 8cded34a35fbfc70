(** Worker process lifecycle: spawning supervised workers in their own
    process groups, killing and reaping them, and retry backoff.

    The supervisor injects no faults of its own. The failures it handles
    are staged from outside the coordinator: the tests' fake worker kills
    itself, stops ticking or refuses its shard, and the fleet smoke script
    stops and kills real workers with [kill]. *)

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
    terminal SIGINT to the coordinator does not). The pipes are
    close-on-exec: the worker keeps only its own stdin and stdout ends, none
    of another worker's. Raises {!Spawn_failed}
    when the executable is missing or the fork fails — the coordinator
    degrades to fewer workers rather than aborting. *)

val kill_group : ?signal:int -> proc -> unit
(** Signals the worker's whole process group (default SIGKILL); falls back
    to the single pid if the group is already gone. Never raises. *)

type exit_status =
  | Exited of int
  | Signaled of int
      (** the system's signal number where POSIX fixes it (SIGKILL is 9),
          OCaml's negative {!Sys} number otherwise *)
  | Running

val reap : proc -> exit_status
(** Non-blocking [waitpid]; a worker already reaped (or stolen by another
    wait) reports [Exited 0]. *)

val wait_reap : ?grace:float -> proc -> exit_status
(** Polls {!reap} for up to [grace] seconds (default 2), then SIGKILLs the
    group and waits for real. The worker is guaranteed gone on return. *)
