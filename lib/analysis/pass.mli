(** The pluggable analysis-pass signature.

    A pass is an online state machine over the typed {!Event} stream of one
    execution: it receives every event in program order and may return
    findings at any event. Passes must be deterministic functions of the
    event stream alone (no wall clock, no randomness, no I/O) — the engine
    relies on this to keep reports byte-identical across [--jobs] workers —
    and must reset any ordering obligations on {!Event.Crash}, because a
    power failure discards volatile state rather than violating a rule. *)

module type S = sig
  val name : string

  type state

  val create : unit -> state
  (** Fresh state; called once per execution. *)

  val on_event : state -> Event.t -> Report.finding list
  (** Feed one event; returns any findings it triggers. [End_execution] is
      the place for end-of-run obligations (it is not emitted when the
      execution dies at a crash, so crash-truncated runs are exempt). *)
end

module type S_hb = sig
  val name : string

  type state

  val create : unit -> state
  (** Fresh state; called once per execution. *)

  val on_event : hb:Hb.t -> state -> Event.t -> Report.finding list
  (** Like {!S.on_event}, with the engine's shared happens-before view. The
      engine feeds [hb] every event {e before} the passes, so clocks read
      here already include the event being handled. The determinism
      contract extends to [hb]: it is itself a pure function of the stream,
      so HB-derived findings stay byte-identical across [--jobs] and the
      snapshot layer. *)
end

type instance = { name : string; feed : Event.t -> Report.finding list }
(** A pass packaged with its per-execution state. *)

val instantiate : (module S) -> instance

val instantiate_hb : hb:Hb.t -> (module S_hb) -> instance
(** Package an HB-aware pass over the engine's shared {!Hb} instance. *)
