(** Runs one generated command sequence under crash exploration.

    The scenario built here is the heart of the engine: the pre-failure
    program opens the structure and issues the commands (checking every
    [Lookup] and the completed final state against the fake as it goes —
    pre-crash, the structure must agree with the model {e exactly}); the
    recovery program re-opens the structure (running its recovery), runs its
    own verification, and then applies the crash-consistency oracle: the
    recovered observable state must be a member of the {!Oracle.explainable}
    set precomputed for the sequence. {!Jaaru.Explorer.run} drives the
    scenario across every failure point and every read-from candidate of
    recovery, so the oracle is evaluated on every recoverable state Px86sim
    admits. *)

val config : Jaaru.Config.t
(** The engine's base configuration: exhaustive (no stop at first bug — the
    bug list must be a function of the sequence alone, not of which crash
    point a worker reached first), single failure, multi-rf reporting off,
    and the workloads' customary step budget. Callers layer [jobs] /
    [snapshot] / budget overrides on top; outcomes are
    byte-identical across all of those by the explorer's standing
    contract. *)

val scenario : Structures.adapter -> Cmd.t list -> Jaaru.Explorer.scenario

val explore :
  ?config:Jaaru.Config.t -> Structures.adapter -> Cmd.t list -> Jaaru.Explorer.outcome
(** [explore a cmds] = [Jaaru.Explorer.run ~config (scenario a cmds)]. *)
