(** The typed checker event stream.

    Every PM-visible operation the checker context executes is mirrored as one
    of these events, carrying the byte address, access width, cache line,
    issuing thread and source label. Each event is built once: the {!Engine}
    feeds it to the analysis passes online, and the bounded {i trace ring}
    keeps the same value for bug reports (rendered lazily — nothing is
    formatted unless a bug is printed). *)

type flush_kind =
  | Clflush
  | Clflushopt
  | Clwb  (** Same reordering semantics as [clflushopt] (paper §2), but a
              distinct instruction — traces and passes must not conflate
              them. *)

type fence_kind = Sfence | Mfence

type t =
  | Store of { addr : Pmem.Addr.t; width : int; value : int; tid : int; label : string }
  | Load of { addr : Pmem.Addr.t; width : int; value : int; tid : int; label : string }
  | Rmw of {
      addr : Pmem.Addr.t;
      width : int;
      old_value : int;
      new_value : int option;
      tid : int;
      label : string;
    }
      (** One locked RMW instruction (cas / xchg / fetch-add), atomic
          [mfence; load; conditional store; mfence]. [new_value] is [None]
          when the store did not happen (a failed CAS). Emitted as a single
          event — its constituent operations are not mirrored separately —
          because it is a synchronisation point: the happens-before engine
          gives it acquire-release semantics. *)
  | Flush of { line_addr : Pmem.Addr.t; kind : flush_kind; tid : int; label : string }
      (** One flush instruction for one whole cache line; [line_addr] is the
          line's base address. *)
  | Fence of { kind : fence_kind; tid : int; label : string }
  | Thread_start of { tid : int; parent : int; label : string }
      (** Thread [tid] spawned by [parent] in a {!Ctx.parallel} section — a
          happens-before edge from everything the parent did. *)
  | Thread_join of { tid : int; parent : int; label : string }
      (** Thread [tid] joined by [parent] at the end of its section — a
          happens-before edge into everything the parent does next. *)
  | Failure_point of { label : string; tid : int }
      (** A failure-injection point was considered here (whether or not the
          exploration chose to fail). *)
  | Crash of { label : string option; tid : int }
      (** A power failure was injected; [None] for an explicit {!Ctx.crash}.
          Volatile state — including every unpersisted ordering obligation
          and every happens-before clock — is gone; passes must reset. *)
  | End_execution
      (** The scenario ran to completion (not emitted on the crash path). *)

val render : t -> string
(** The human-readable one-line form used in bug-report traces. *)

val pp : Format.formatter -> t -> unit
