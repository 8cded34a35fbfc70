(** The happens-before substrate for the HB-aware analysis passes — and the
    per-event clock oracle source-DPOR will query.

    One instance is created per execution and fed every event by the
    {!Engine} {e before} the passes see it, so a pass observing event [e]
    reads post-[e] clocks. The relation encoded:

    - {b Thread_start / Thread_join}: parent ⊑ child at spawn, child ⊑
      parent at join (pthread_create / pthread_join edges).
    - {b Rmw}: acquire-release. The RMW joins the last-store clock of the
      bytes it reads (the rf-into-RMW edge — a CAS lock-acquire that reads a
      plain unlock store inherits the unlocker's full history) and, when its
      store happens, publishes the joined clock to those bytes. Its locked
      mfences also commit the thread's pending flushes.
    - {b Store}: publishes the storing thread's clock as the location's
      release clock. Plain {b loads} create no edge — ordering every rf
      would hide exactly the races being hunted.
    - {b Flush / Fence}: the Px86 persist-commit edge. A flush records the
      line's current store generation as pending for the flushing thread; a
      fence by that thread commits every pending line, stamping the covered
      generation with the fencing thread's clock. Not an inter-thread edge.
    - {b Crash}: full reset — volatile clocks die with the machine, matching
      the pass contract that obligations reset at {!Event.Crash}.

    {b Determinism:} everything is a pure function of the event stream, so
    clock assignments — and any finding details derived from them — are
    byte-identical across [--jobs] values and with the snapshot layer
    on or off (the repo's standing reporting contract). *)

type t

val create : ?record:bool -> unit -> t
(** [record] (default [false]) keeps a per-event clock snapshot for
    {!snapshot}. The engine's per-execution instance leaves it off; the
    DPOR oracle and tests turn it on. *)

val observe : t -> Event.t -> unit
(** Feed one event, in stream order. *)

val clock : t -> int -> Vector_clock.t
(** Current clock of a thread ([Vector_clock.empty] for a tid never seen). *)

val location : t -> int -> Vector_clock.t option
(** Release clock of the last store to a byte address, if any store
    happened since the last crash. *)

val line_gen : t -> int -> int
(** Store generation of a cache line (stores observed since the last
    crash); 0 for an untouched line. Passes pair this with
    {!line_committed} to ask whether a specific store is persisted. *)

val line_committed : t -> int -> gen:int -> before:Vector_clock.t -> bool
(** [line_committed t line ~gen ~before]: has some flush+fence edge
    committed generation [gen] of [line], with the fence's clock ⪯
    [before]? The robustness pass's core query: "was this store's line
    committed in a way ordered before the observing load?" *)

val events_seen : t -> int
(** Event ids assigned so far; the next event gets id [events_seen t].
    Ids run across crashes (they number the execution's whole stream). *)

val snapshot : t -> int -> Vector_clock.t
(** [snapshot t id] is the emitting thread's clock just after event [id]
    was applied — the happens-before oracle: event [a] happens-before [b]
    (same execution) iff [Vector_clock.leq (snapshot t a) (snapshot t b)]
    when [a]'s thread component is included, i.e. via
    {!Vector_clock.epoch_leq}. Raises [Invalid_argument] if the instance
    was created without [~record:true] or [id] is out of range. *)
