type entry =
  | Store of { addr : Pmem.Addr.t; value : int; width : int; label : string }
  | Clflush of { addr : Pmem.Addr.t; label : string }
  | Clflushopt of { addr : Pmem.Addr.t; enq_seq : int; label : string }
  | Sfence

(* A growable ring: [len] entries starting at slot [head], oldest first, in
   an array whose capacity is a power of two (so a slot is an index [land]
   the mask). Vacant slots hold the immediate [Sfence] so that evicted
   entries are not kept alive. The array stays [||] until the first enqueue:
   under eager eviction most buffers never hold more than one entry. *)
type t = { mutable buf : entry array; mutable head : int; mutable len : int }

let create () = { buf = [||]; head = 0; len = 0 }
let is_empty sb = sb.len = 0
let length sb = sb.len
let slot sb i = (sb.head + i) land (Array.length sb.buf - 1)

let grow sb =
  let buf = Array.make (max 8 (2 * Array.length sb.buf)) Sfence in
  for i = 0 to sb.len - 1 do
    buf.(i) <- sb.buf.(slot sb i)
  done;
  sb.buf <- buf;
  sb.head <- 0

let enqueue sb e =
  if sb.len = Array.length sb.buf then grow sb;
  sb.buf.(slot sb sb.len) <- e;
  sb.len <- sb.len + 1

let dequeue sb =
  if sb.len = 0 then None
  else begin
    let e = sb.buf.(sb.head) in
    sb.buf.(sb.head) <- Sfence;
    sb.head <- slot sb 1;
    sb.len <- sb.len - 1;
    Some e
  end

let nth sb i =
  if i < 0 || i >= sb.len then invalid_arg "Store_buffer.nth";
  sb.buf.(slot sb i)

(* The scans walk newest to oldest and stop at the first match. They are
   top-level functions over explicit arguments so that no closure is
   allocated per call. *)
let rec overlap_from buf mask head a width i =
  if i < 0 then -1
  else
    match buf.((head + i) land mask) with
    | Store { addr; width = w; _ } when addr < a + width && a < addr + w -> i
    | Store _ | Clflush _ | Clflushopt _ | Sfence -> overlap_from buf mask head a width (i - 1)

let newest_overlap sb a ~width =
  overlap_from sb.buf (Array.length sb.buf - 1) sb.head a width (sb.len - 1)

let rec byte_from buf mask head a i =
  if i < 0 then -1
  else
    match buf.((head + i) land mask) with
    | Store { addr; value; width; _ } when a >= addr && a < addr + width ->
        (value lsr (8 * (a - addr))) land 0xff
    | Store _ | Clflush _ | Clflushopt _ | Sfence -> byte_from buf mask head a (i - 1)

let forward_byte sb a = byte_from sb.buf (Array.length sb.buf - 1) sb.head a (sb.len - 1)

let copy sb =
  if sb.len = 0 then create () else { buf = Array.copy sb.buf; head = sb.head; len = sb.len }

let clear sb =
  sb.buf <- [||];
  sb.head <- 0;
  sb.len <- 0
