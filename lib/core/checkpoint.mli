(** On-disk checkpoints: the durable unit of exploration progress.

    A checkpoint captures everything needed to continue a partially explored
    run: the {e unexplored frontier} (encoded {!Choice} prefixes — each pins
    an entire untouched subtree), the merged reports and statistics of the
    explored part, and a fingerprint of the configuration and workload that
    shaped the tree. Resuming pushes the frontier's subtrees back onto a
    fresh work queue; because every explored leaf is attributed to exactly
    one checkpointed-or-explored subtree, an interrupted-then-resumed run
    reports byte-identically to an uninterrupted one, for any [jobs] value
    and with the snapshot layer on or off.

    {2 File format}

    A magic line ["jaaru-checkpoint-v2"], a CRC-32 line (8 hex digits) of the
    payload, then the {!Pmem.Wire} encoding of {!t} — an explicit per-field
    codec instead of a [Marshal] image. Saves are atomic (write-temp-then-rename),
    so a crash mid-save leaves the previous checkpoint intact; a save that
    fails before the rename removes its temp file. Checkpoints are
    single-version: a format change bumps the magic and old files are
    {!Rejected}, never misread.

    {2 The fingerprint}

    CRC-32 over the workload name and every configuration field that shapes
    the choice tree or the reports ([max_failures], eviction policy,
    [max_steps], [max_executions], [stop_at_first_bug], report switches,
    [schedule_seed], region geometry, [analyze], [suppress],
    [step_deadline]). Fields a resumed run may legitimately vary — [jobs],
    [snapshot], [trace_depth], [wall_budget], [mem_budget],
    [checkpoint_every] — are excluded: outcomes are identical across them by
    construction. [trace_depth] keeps a constant slot, so checkpoints from
    before it was excluded stay valid; only the traces of the bugs found
    before a resume may differ from the original run's. *)

exception Rejected of string
(** The file is not a usable checkpoint for this run: unreadable, corrupt
    (bad magic, checksum or payload), or fingerprint mismatch — or, from
    {!save} and {!check_writable}, not writable. The message says which. *)

type t = {
  fingerprint : string;
  frontier : string list;  (** encoded prefixes ({!Choice.encode_prefix}) *)
  bugs : Bug.t list;
  multi_rf : Ctx.multi_rf list;
  perf : Ctx.perf_report list;
  findings : Analysis.Report.finding list;
  stats : Stats.t;  (** merged statistics of the explored part *)
}

val fingerprint : workload:string -> Config.t -> string

val make :
  fingerprint:string ->
  frontier:string list ->
  bugs:Bug.t list ->
  multi_rf:Ctx.multi_rf list ->
  perf:Ctx.perf_report list ->
  findings:Analysis.Report.finding list ->
  stats:Stats.t ->
  t

val frontier_prefixes : t -> Choice.prefix list
(** Decoded frontier, in checkpoint order. Raises {!Rejected} on a corrupt
    prefix (also checked eagerly by {!load}). *)

val save : t -> string -> unit
(** Atomically writes the checkpoint to a path (temp file + rename). If the
    write fails before the rename, the temp file is removed — a failed save
    never leaves a stale [.tmp] sibling behind — and an I/O error is raised
    as {!Rejected} naming the path (any other exception is re-raised). *)

val check_writable : string -> unit
(** Raises {!Rejected} unless {!save} can create the path: its directory
    exists and is writable, and the path is not itself a directory. Call it
    before exploring, so a bad path fails at once instead of after the
    run. *)

val set_write_fault : (unit -> unit) option -> unit
(** Test hook: a function {!save} calls after the header and before the
    payload write. Tests inject a raise here to simulate a mid-save failure
    (full disk, kill) and assert that the temp file is cleaned up and the
    previous checkpoint survives. [None] (the default) disables it. *)

val load : string -> t
(** Reads and integrity-checks a checkpoint (magic, checksum, payload and
    frontier decodability). Raises {!Rejected}, also when the path cannot be
    read — {e not} validation against a run; call {!validate} for that. *)

val to_string : t -> string
(** The exact byte image {!save} writes (header plus payload) — the unit
    fleet workers ship over their stdout pipe instead of through a file. *)

val of_string : string -> t
(** Inverse of {!to_string}, with the same integrity checks as {!load}
    (magic, checksum, payload and frontier decodability). Raises
    {!Rejected}. *)

val validate : t -> workload:string -> config:Config.t -> unit
(** Raises {!Rejected} unless the checkpoint's fingerprint matches this
    workload and configuration. *)
