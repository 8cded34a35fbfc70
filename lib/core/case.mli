(** Bundled model-checking cases and their verdict.

    A case couples a failure scenario with the configuration it runs under
    and with what the run must show: the bug seeded into it, or nothing for
    a variant that must verify clean. The PMDK and RECIPE suites, the CLI,
    the examples and the paper's bug tables all read cases through this one
    record and judge runs through {!verdict}. *)

type t = {
  id : string;  (** e.g. "pmdk-1", "CCEH-1" *)
  benchmark : string;  (** paper benchmark name, e.g. "Btree", "CCEH" *)
  description : string;  (** what is seeded / exercised *)
  expected_symptom : string list option;
      (** [Some fragments]: a seeded bug whose symptom must contain at least
          one of [fragments]; [None]: a fixed variant that must verify
          clean. *)
  lint_roots : string list;
      (** for seeded missing-flush bugs: store labels [jaaru lint] must name
          as the root cause (naming any one of them counts); [[]] when the
          case is not lint-detectable *)
  scenario : Explorer.scenario;
  config : Config.t;
}

val v :
  id:string ->
  benchmark:string ->
  description:string ->
  ?expected:string list ->
  ?lint_roots:string list ->
  config:Config.t ->
  Explorer.scenario ->
  t
(** A clean case unless [expected] is given; [lint_roots] defaults to [[]]. *)

val find : t list -> string -> t
(** Lookup by [id]; raises [Not_found]. *)

val verdict : t -> Bug.t list -> (unit, string) result
(** Whether a run that reported [bugs] met the case. A seeded case passes
    iff some bug's {!Bug.symptom} contains one of its [expected_symptom]
    fragments; otherwise the error says the seeded bug was missed and lists
    the sorted distinct symptoms found instead, if any. A clean case passes
    iff [bugs] is empty. *)
