(** Persistent-memory region descriptors.

    A checked program is given one contiguous PM region (the analogue of a
    mapped pool file). Accesses outside the region model wild pointers — the
    segmentation faults of the paper's Fig. 12/13 symptoms — and are reported
    by the checker as illegal accesses. *)

type t = private { base : Addr.t; size : int }

val v : base:Addr.t -> size:int -> t
(** [v ~base ~size] describes the byte range [\[base, base+size)]. [base] must
    be cache-line aligned and positive; [size] positive, with [base + size]
    representable. *)

val contains : t -> Addr.t -> int -> bool
(** [contains r a n] holds when the byte range [\[a, a+n)] lies inside [r].
    Exact for every [a] and [n], including ranges whose end [a + n] would
    overflow. *)

val limit : t -> Addr.t
(** One past the last valid byte. *)

val pp : Format.formatter -> t -> unit
