(** The stateful-PBT driver: generate, explore, shrink, report.

    For each structure the driver generates [count] command sequences from a
    PRNG derived from [(seed, structure id)] alone, explores each under
    {!Runner.explore}, and — on the first sequence whose exploration reports
    any bug — lets QCheck2's integrated shrinking reduce it, re-exploring
    every candidate, to a minimal failing command sequence. The reported
    witness is that shrunk sequence plus the explorer's deterministic bug
    list (whose locations name the crash point).

    {b Determinism.} Without a deadline the whole report — sequences,
    execution totals, the shrunk witness — is a function of (structure,
    seed, count, max_cmds) only: generation is seeded, and each
    exploration's outcome is byte-identical across [jobs] values and the
    snapshot layer by the explorer's contract. [wall] is the only
    nondeterministic field, and {!pp_report} never prints it.

    {b Nightly mode.} With [deadline] (absolute, [Unix.gettimeofday]) the
    driver checks the clock between sequences and also hands each
    exploration the remaining budget as [Config.wall_budget], so the
    explorer's workers interrupt even a single oversized exploration
    cooperatively. A deadline-tripped structure reports [interrupted = true]
    with the sequences it completed; determinism is forfeited, minimality of
    an in-flight shrink may be too — soundness (no false failures) is not. *)

type failure = {
  cmds : Cmd.t list;  (** the shrunk minimal failing sequence *)
  shrink_steps : int;
  symptoms : string list;
      (** deduplicated sorted bug symptoms from exploring [cmds] *)
}

type report = {
  structure : string;
  seed : int;
  requested : int;  (** sequences asked for ([count]) *)
  max_cmds : int;
  sequences : int;
      (** sequences actually explored — [requested] on a clean run; more
          when shrinking re-explored candidates; fewer when a deadline
          tripped *)
  executions : int;  (** total executions across all explored sequences *)
  failure : failure option;
  interrupted : bool;  (** a [deadline] cut the run short *)
  wall : float;  (** seconds; never printed by {!pp_report} *)
}

val run_structure :
  ?config:Jaaru.Config.t ->
  ?deadline:float ->
  seed:int ->
  count:int ->
  max_cmds:int ->
  Structures.adapter ->
  report
(** [config] defaults to {!Runner.config}; pass jobs/snapshot overrides
    through it. *)

val found_bug : report -> bool

val comparable_report : report -> report
(** [wall] zeroed — the projection that must be equal across [jobs] values
    and layer settings (the PBT analogue of [Explorer.comparable_outcome]). *)

val pp_report : Format.formatter -> report -> unit
(** Deterministic rendering (no wall clock): one status line, plus the
    shrunk witness and its symptoms on failure. *)

val json_schema : string
(** The version tag written into {!json_report} artifacts
    (["jaaru-pbt-coverage/1"]); bumped on any shape change so consumers
    never misread an old artifact. *)

val json_report : report list -> string
(** The nightly coverage/witness summary as a schema-versioned JSON
    document (see the $(b,--json-out) flag of [jaaru pbt]): per structure
    the seed and requested coverage, the sequences and executions actually
    explored, the interrupted flag, and the shrunk failure witness
    (commands rendered as a repro string, plus symptoms) or [null].
    Deterministic — [wall] is never written. *)
