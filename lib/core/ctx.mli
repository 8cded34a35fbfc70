(** The checker context: the API a persistent-memory program is written
    against.

    Where the original Jaaru instruments loads, stores, flushes and fences
    with an LLVM pass, programs checked by this reproduction call these
    functions directly. Each operation feeds the same event stream into the
    model-checking algorithm: stores and flushes pass through the TSO store
    buffer of the calling thread, loads consult the execution stack through
    the constraint-refinement read-from analysis, and flush instructions are
    failure-injection points.

    All [addr] arguments are byte addresses inside the context's PM region;
    accesses outside it raise {!Bug.Found} with an [Illegal_access] — the
    model's segmentation fault. The optional [?label] arguments play the role
    of source locations in bug reports (e.g. ["btree_map.ml:89"]). *)

type t

exception Power_failure
(** Raised at an injected failure; handled by the explorer. Never catch it in
    a checked program. *)

type multi_rf = {
  load_label : string;
  load_addr : Pmem.Addr.t;
  candidates : (string * int) list;  (** store label, byte value *)
}
(** A load observed to have more than one read-from candidate — the paper's
    missing-flush debugging report. *)

type perf_kind =
  | Redundant_flush  (** flushing a line with no new stores to persist *)
  | Redundant_fence  (** an sfence with nothing pending to order *)

type perf_report = { perf_kind : perf_kind; perf_label : string }
(** A performance issue — the extension the paper suggests for finding the
    redundant-flush/fence bugs reported by PMTest and XFDetector. *)

(** {1 Lifecycle (used by the explorer; not by checked programs)} *)

val create :
  ?snapshots:Snapshot.cache ->
  ?resume:Snapshot.t ->
  config:Config.t ->
  choice:Choice.t ->
  unit ->
  t
(** [snapshots] is the owning worker's failure-point snapshot cache: when
    present, every failure point the execution considers captures a
    resumable snapshot into it, right after consuming its decision, at the
    point of that decision's take-the-crash alternative; {!crash} captures
    at the last consumed decision (see {!Snapshot}). Omitted (e.g. with
    [config.snapshot] off), executions always run from the start.

    With [resume], the context starts in the exact post-crash state of that
    snapshot, whose point must be [`On_path] for [choice] ({!Snapshot.find}
    guarantees it): the cursor fast-forwarded to the point, the
    buffered-drain decisions taken live and applied by
    {!Snapshot.materialize}, whose records make up the whole stack, the
    trace ring and counters as captured, and the crash event emitted. The
    threads are not restored: the crash discards them. Recovery then runs
    ({!after_crash} first) as if the pre-failure program had been re-run.

    Each context owns a fresh trace ring of [config.trace_depth] events and
    an analysis engine running the {!Analysis.Redundant} pass (plus the full
    suite when [config.analyze] is set); every operation's event goes to
    both, except that a load's goes to the engine only when
    [config.analyze] is set (the redundant pass ignores loads).

    With [config.step_deadline] set, the execution's deadline is that many
    seconds after [create]: the first operation past it raises {!Bug.Found}
    with {!Bug.Execution_timeout}. Cancellation is cooperative — code that
    never issues a [Ctx] operation cannot be interrupted. *)

val set_failure_point_hook : t -> (string -> unit) -> unit
(** Invoked (with the flush label) at every failure-injection point that is
    considered, before the fail/continue decision. Used by the Yat baseline
    to snapshot the pre-failure state at each point. *)

(** [install_concrete_state ctx bytes] is the eager-baseline bridge: it
    records the given byte values as fully persisted stores of the current
    execution, then simulates a power failure so that a following recovery
    run reads exactly this concrete persistent-memory image. Counts as one
    injected failure. *)
val install_concrete_state : t -> (Pmem.Addr.t * int) list -> unit
val finish_execution : t -> unit
val after_crash : t -> unit
val fp_count : t -> int
val multi_rf_reports : t -> multi_rf list

val perf_reports : t -> perf_report list
(** The {!Analysis.Redundant} pass findings as performance reports: they
    feed the "performance issue(s)" section of every report. *)

val analysis_findings : t -> Analysis.Report.finding list
(** Everything the configured analysis passes reported for this execution:
    deduplicated, label-suppressed ([config.suppress]) and sorted. The
    redundant-flush/fence pass always runs; [config.analyze] adds the rest
    of the suite. *)

val trace_events : t -> string list
(** Rendered trace-ring events, oldest first. Rendering happens here, not at
    emission — an execution that reports no bug never formats a string. *)

val trace_dropped : t -> int
(** How many older events fell out of the bounded trace ring. *)

val last_label : t -> string
val exec_stack : t -> Exec.Exec_stack.t
val failures : t -> int

(** {1 Program-facing API} *)

val config : t -> Config.t
val region : t -> Pmem.Region.t

val in_recovery : t -> bool
(** Whether at least one failure has been injected — lets one [main] function
    serve as both the pre- and post-failure program. *)

val store : t -> ?label:string -> width:int -> Pmem.Addr.t -> int -> unit
(** A little-endian [width]-byte store of the value's low bytes. Raises
    [Invalid_argument] unless [1 <= width <= Pmem.Bytes_le.max_width]. *)

val load : t -> ?label:string -> width:int -> Pmem.Addr.t -> int
(** A little-endian [width]-byte load, zero-extended. Raises
    [Invalid_argument] unless [1 <= width <= Pmem.Bytes_le.max_width]. *)

val store8 : t -> ?label:string -> Pmem.Addr.t -> int -> unit
val store16 : t -> ?label:string -> Pmem.Addr.t -> int -> unit
val store32 : t -> ?label:string -> Pmem.Addr.t -> int -> unit
val store64 : t -> ?label:string -> Pmem.Addr.t -> int -> unit
val load8 : t -> ?label:string -> Pmem.Addr.t -> int
val load16 : t -> ?label:string -> Pmem.Addr.t -> int
val load32 : t -> ?label:string -> Pmem.Addr.t -> int
val load64 : t -> ?label:string -> Pmem.Addr.t -> int

val clflush : t -> ?label:string -> Pmem.Addr.t -> int -> unit
(** [clflush ctx addr size] issues one [clflush] instruction per cache line
    covering [\[addr, addr+size)] (the line holding [addr] when [size] is 0).
    Each instruction is a failure-injection point. Raises [Invalid_argument]
    on a negative [size], as {!clflushopt} and {!clwb} do. *)

val clflushopt : t -> ?label:string -> Pmem.Addr.t -> int -> unit

val clwb : t -> ?label:string -> Pmem.Addr.t -> int -> unit
(** Same reordering semantics as {!clflushopt} (paper §2), but traces and
    analysis passes see the distinct {!Analysis.Event.Clwb} kind. *)

val sfence : t -> ?label:string -> unit -> unit
val mfence : t -> ?label:string -> unit -> unit

val memset : t -> ?label:string -> Pmem.Addr.t -> int -> int -> unit
(** [memset ctx addr byte len] stores [byte] over [len] bytes (64-bit chunks
    where possible), without flushing. *)

val memcpy : t -> ?label:string -> dst:Pmem.Addr.t -> src:Pmem.Addr.t -> int -> unit
(** Byte copy within the region, without flushing. Forward-overlapping
    ranges are rejected. *)

val memset_persist : t -> ?label:string -> Pmem.Addr.t -> int -> int -> unit
val memcpy_persist : t -> ?label:string -> dst:Pmem.Addr.t -> src:Pmem.Addr.t -> int -> unit
(** The pmem_memcpy_persist / pmem_memset_persist idiom: the bulk write
    followed by clwb of every touched line and an sfence. *)

val cas64 : t -> ?label:string -> Pmem.Addr.t -> expected:int -> desired:int -> bool
(** Locked compare-and-swap: atomic [mfence; load; conditional store; mfence]
    (paper §4, Locked RMW instructions). Returns whether the swap happened. *)

val xchg64 : t -> ?label:string -> Pmem.Addr.t -> int -> int
(** Atomic exchange; returns the previous value. *)

val fetch_add64 : t -> ?label:string -> Pmem.Addr.t -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

val check : t -> ?label:string -> bool -> string -> unit
(** [check ctx cond msg] is the program-under-test assertion: raises
    {!Bug.Found} with [Assertion_failure msg] when [cond] is false. *)

val abort : t -> ?label:string -> string -> 'a
(** Unconditional assertion failure. *)

val parallel : t -> ?label:string -> (t -> unit) list -> unit
(** Runs the given thread bodies under the deterministic round-robin
    scheduler, each with its own store and flush buffer. Returns when all
    complete. Emits {!Analysis.Event.Thread_start} for each spawned thread
    before any body runs and {!Analysis.Event.Thread_join} after all bodies
    complete (joins are not emitted when a power failure unwinds the
    section); [label] tags those events, default ["parallel"]. *)

val crash : t -> 'a
(** Injects a power failure at this exact point. With [max_failures = 0]
    this is the only failure in the scenario — the litmus-test idiom for
    asking "what exactly can recovery observe if power is lost precisely
    here?". An explicit crash may take the run one failure past
    [max_failures], no further: once {!failures} exceeds [max_failures] it
    raises [Invalid_argument], which the explorer reports as a
    {!Bug.Program_exception}. So a recovery that crashes on every run ends
    its replay instead of recovering forever. *)

val progress : t -> ?label:string -> unit -> unit
(** Charges one step against the loop budget without touching memory — call
    inside volatile-only loops so genuine infinite loops are still caught. *)
