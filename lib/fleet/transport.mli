(** The fleet wire protocol: length-prefixed, checksummed {!Pmem.Wire} frames
    over the pipes connecting the coordinator to each supervised worker
    process.

    Frame layout: 4-byte big-endian payload length, 4-byte big-endian CRC-32
    of the payload, payload. The length catches the common failure (a worker
    SIGKILLed mid-write leaves a short final frame); the CRC guarantees a
    corrupted stream surfaces as end of stream ({!at_eof}) rather than
    decoding into a plausible wrong message. A transport stream never
    recovers from a framing error — the supervisor treats it as a dead worker
    and requeues the shard.

    Both directions carry the same unit of work: a shard goes down in
    [Assign] and its result comes back in [Result], each as the bytes of a
    {!Jaaru.Checkpoint} ({!Jaaru.Checkpoint.to_string}). *)

exception Closed of string
(** {!write} found the peer's end of the pipe closed. *)

type msg =
  | Heartbeat of { shard : int; beats : int }
      (** worker → coordinator, periodic liveness proof; [shard] is the shard
          currently being explored ([-1] when idle — the first idle beat
          doubles as the ready handshake) *)
  | Assign of { shard : int; attempt : int; payload : string }
      (** coordinator → worker: explore the shard checkpoint whose bytes are
          [payload] ({!Jaaru.Checkpoint.of_string}) *)
  | Preempt
      (** coordinator → worker: stop cooperatively and return the remainder —
          work stealing and graceful shutdown *)
  | Result of { shard : int; payload : string }
      (** worker → coordinator: the shard's result checkpoint, as bytes
          ({!Jaaru.Checkpoint.of_string}); an interrupted shard carries a
          non-empty frontier remainder *)
  | Refused of { shard : int; reason : string }
      (** worker → coordinator: the assignment could not even start (torn
          shard checkpoint, fingerprint mismatch) — distinct from a crash so
          the coordinator can resend the shard and retry *)

val write : Unix.file_descr -> msg -> unit
(** Writes one complete frame (blocking). Raises {!Closed} on a broken
    pipe. *)

val write_all : Unix.file_descr -> msg list -> unit
(** Writes the frames of [msgs] in one [write] where the pipe takes them,
    so a reader waiting on the pipe sees them together (frames up to
    [PIPE_BUF] bytes in all are written atomically). Raises {!Closed} on a
    broken pipe. *)

(** {1 Non-blocking buffered reader — both sides}

    The one frame parser. The coordinator multiplexes many workers with
    [Unix.select], the worker waits on its stdin between heartbeats; each
    pipe gets a [reader] that accumulates partial frames across {!drain}
    calls and never blocks. *)

type reader

val reader : Unix.file_descr -> reader
(** Takes ownership of [fd] and switches it to non-blocking mode. *)

val reader_fd : reader -> Unix.file_descr
(** The underlying descriptor, for the [select] read set. *)

val drain : reader -> msg list
(** Reads everything currently available and returns the complete frames, in
    arrival order; partial trailing bytes are buffered for the next call.
    EOF and framing errors do not raise — they latch {!at_eof}, because a
    dead peer is routine (that is what the supervisor is for). A framing
    error yields the complete frames before it and nothing after; once
    {!at_eof} holds, [drain] returns [[]]. *)

val at_eof : reader -> bool
(** The stream has ended (peer exit, torn frame, or checksum failure) and no
    further messages will arrive. *)

val close_reader : reader -> unit
(** Closes the descriptor and latches {!at_eof} (idempotent). *)
