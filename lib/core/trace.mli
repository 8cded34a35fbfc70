(** A bounded ring of recent execution events, attached to bug reports so a
    developer can see what led to the crash (paper §4, Debugging support).

    The ring stores the boxed {!Analysis.Event.t} values the analysis engine
    is fed anyway, so adding an event is one array write; nothing is
    formatted unless a report is printed. Snapshot copy/restore are array
    blits — events are immutable, so copies share them. *)

type t

val create : depth:int -> t
(** [depth <= 0] disables the ring: adds are no-ops and {!events} is empty. *)

val enabled : t -> bool

val depth : t -> int
(** The [depth] this ring was created with (0 when disabled). *)

val add : t -> Analysis.Event.t -> unit
val clear : t -> unit

val copy : t -> t
(** An independent ring with identical contents. *)

val restore : t -> from:t -> unit
(** Overwrites [t]'s contents with [from]'s. Both rings must have the same
    depth ([Invalid_argument] otherwise). *)

val events : t -> Analysis.Event.t list
(** Oldest first, at most [depth] entries. *)

val dropped : t -> int
(** How many older events were overwritten because the ring was full. *)
