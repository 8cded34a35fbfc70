(** Hand-rolled structural serialization: length-prefixed ints and strings
    written into a reusable scratch buffer.

    This replaces [Marshal] in checkpoint payloads and fleet frames. The
    encoding is purely structural — equal values
    encode to equal bytes, and the length prefixes make it injective, so two
    values encode identically iff they are structurally equal (the property
    [Marshal.to_string v [No_sharing]] provided, without the runtime's
    generic traversal or its per-call allocation).

    Encoders write into a {!sink}, a growable byte scratch. Decoders read from a {!src} cursor and raise {!Corrupt} on truncated or
    malformed input rather than returning partial values. *)

type sink

val sink : ?initial:int -> unit -> sink
(** A fresh scratch buffer. [initial] (default 4096) is the starting
    capacity in bytes; the buffer doubles as needed and is never shrunk. *)

val length : sink -> int

val int : sink -> int -> unit
(** Zigzag + LEB128 varint: one byte for |v| < 64, at most nine bytes for
    any OCaml int, including negatives and sentinels like [max_int]. The
    encoder always emits the minimal form, so the encoding is injective
    and self-delimiting. *)

val bool : sink -> bool -> unit
val float : sink -> float -> unit
(** IEEE-754 bit pattern, so the round trip is exact. *)

val string : sink -> string -> unit
(** Length-prefixed bytes. *)

val option : (sink -> 'a -> unit) -> sink -> 'a option -> unit
val list : (sink -> 'a -> unit) -> sink -> 'a list -> unit
(** Count-prefixed elements, in list order. *)

val contents : sink -> string
(** The bytes written so far (a fresh string). *)

val crc : sink -> int
(** CRC-32 of the current contents, without copying them out. *)

(** {1 Decoding} *)

type src

exception Corrupt of string

val src : string -> src
(** A cursor over [s], starting at offset 0. *)

val rd_int : src -> int
val rd_bool : src -> bool
val rd_float : src -> float
val rd_string : src -> string
val rd_option : (src -> 'a) -> src -> 'a option
val rd_list : (src -> 'a) -> src -> 'a list
val expect_end : src -> unit
(** Raises {!Corrupt} unless every byte has been consumed. *)
