(** Bug manifestations and reports.

    Jaaru reports bugs that have a visible manifestation (paper §5.1): a
    segmentation-fault-like illegal memory access, an assertion failure inside
    the program under test, getting stuck in an infinite loop, or an
    unexpected program exception. *)

type kind =
  | Illegal_access of { addr : Pmem.Addr.t; width : int; op : string }
      (** A load or store outside the PM region — the model's segmentation
          fault. [op] is ["load"] or ["store"]. *)
  | Assertion_failure of string
  | Infinite_loop of { steps : int }
  | Program_exception of string
      (** The program under test raised an unexpected OCaml exception. *)
  | Step_limit of { resource : string }
      (** The replay blew a checker resource budget ([Stack_overflow] /
          [Out_of_memory]); [resource] names which ("stack" or "memory").
          Distinct from {!Program_exception} so deduplication and suppression
          treat runaway resource usage separately from real program
          exceptions. *)
  | Execution_timeout of { seconds : float }
      (** One execution exceeded the per-execution wall-clock deadline
          ({!Config.step_deadline}) and was cancelled at its first [Ctx]
          operation past it. Catches workloads that diverge between [Ctx] operations faster than
          [max_steps] can see; [seconds] is the configured deadline, so the
          report is deterministic even though the trigger is wall-clock. *)

type t = {
  kind : kind;
  location : string;  (** source label of the faulting operation *)
  exec_depth : int;  (** how many failures had been injected when it fired *)
  trace : string list;  (** recent events, oldest first *)
  dropped : int;
      (** events older than the trace window that the bounded ring discarded;
          surfaced by {!pp} as "… N earlier events dropped" *)
}

exception Found of kind * string
(** Raised inside a checked program to signal a bug at a location; the
    explorer catches it and records a {!t}. *)

val symptom : t -> string
(** One-line symptom in the style of the paper's Fig. 12/15 tables, e.g.
    "Illegal memory access at btree_map.ml:89". *)

val same_report : t -> t -> bool
(** Deduplication: same kind shape and location (the paper conservatively
    groups failure points with the same symptom as one bug). *)

val report_key : t -> int * string
(** The identity {!same_report} compares — a hashtable key for
    deduplicating reports without a quadratic scan. *)

val normalize_message : string -> string
(** Canonicalizes a {!Program_exception} message for stable dedup keys:
    first line only, hexadecimal runs (heap addresses from [Printexc]
    printers) rewritten to [0x<addr>], length bounded. *)

val pp : Format.formatter -> t -> unit
val pp_kind : Format.formatter -> kind -> unit
