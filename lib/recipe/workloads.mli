(** Ready-made failure scenarios over the RECIPE mini-suite.

    [fig13_cases] seeds the eighteen bugs of the paper's Fig. 13 (one case
    per row, same numbering); [fixed_cases] are the bug-free variants used
    for the Fig. 14 state-space-reduction experiment. *)

type case = Jaaru.Case.t

val fig13_cases : unit -> case list
val fixed_cases : unit -> case list

val fixed_scenario : string -> int -> Jaaru.Explorer.scenario
(** [fixed_scenario benchmark n] builds the bug-free scenario for one of
    "CCEH", "FAST_FAIR", "P-ART", "P-BwTree", "P-CLHT", "P-Masstree" with an
    [n]-key workload — the knob behind the Fig. 14 sweep. Raises
    [Invalid_argument] on an unknown name. *)

val concurrent_cases : unit -> case list
(** Multithreaded P-CLHT workloads (two writers under the cooperative
    scheduler): a correct lock-protected variant and a racy one whose bug
    only some schedules expose — inputs for schedule fuzzing. *)

val concurrent_scenario :
  ?ks0:int list -> ?ks1:int list -> racy:bool -> unit -> Jaaru.Explorer.scenario
(** The scenario behind {!concurrent_cases}, with the per-thread key lists
    exposed as knobs ([ks0]/[ks1] for the lock-protected variant; the racy
    variant ignores them) — smaller lists make a seconds-long workload. *)
