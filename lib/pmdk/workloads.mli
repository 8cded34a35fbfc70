(** Ready-made failure scenarios over the PMDK mini-suite.

    Each case couples a pre-failure workload with its recovery program and
    records whether a bug is seeded — the driving data for reproducing the
    paper's Fig. 12 / Fig. 16 (bugs found in PMDK) and for the fixed-variant
    performance runs. *)

type case = Jaaru.Case.t

val fig12_cases : unit -> case list
(** The seven buggy PMDK configurations of the paper's Fig. 12. *)

val fixed_cases : ?n:int -> unit -> case list
(** Bug-free variants of every PMDK benchmark (inserting [n] keys,
    default 8), for performance measurement and regression. *)

val checksum_cases : unit -> case list
(** Checksum-based recovery (§4): a correct CRC log and the skip-CRC bug. *)

val skiplist_cases : unit -> case list
(** The skiplist example (the paper checked every PMDK example program):
    a fixed variant plus two seeded protocol bugs. *)
