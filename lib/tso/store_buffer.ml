type entry =
  | Store of { addr : Pmem.Addr.t; value : int; width : int; label : string }
  | Clflush of { addr : Pmem.Addr.t; label : string }
  | Clflushopt of { addr : Pmem.Addr.t; enq_seq : int; label : string }
  | Sfence

(* A growable ring: [len] entries starting at slot [head], oldest first, in
   an array whose capacity is a power of two (so a slot is an index [land]
   the mask). Vacant slots hold the immediate [Sfence] so that evicted
   entries are not kept alive. The array stays [||] until the first enqueue:
   under eager eviction most buffers never hold more than one entry.

   Entries also have absolute positions: the head entry's is [base], which
   [dequeue] and [clear] move forward and nothing moves back. [newest] maps
   each class of 8-byte words (word number [land 63]) to the absolute
   position of the newest buffered store writing a word of that class, or to
   a position below [base] when there is none; it too is allocated by the
   first enqueue. *)
type t = {
  mutable buf : entry array;
  mutable head : int;
  mutable len : int;
  mutable base : int;
  mutable newest : int array;
}

let classes = 64
let create () = { buf = [||]; head = 0; len = 0; base = 0; newest = [||] }
let is_empty sb = sb.len = 0
let length sb = sb.len
let slot sb i = (sb.head + i) land (Array.length sb.buf - 1)

let grow sb =
  let buf = Array.make (max 8 (2 * Array.length sb.buf)) Sfence in
  for i = 0 to sb.len - 1 do
    buf.(i) <- sb.buf.(slot sb i)
  done;
  sb.buf <- buf;
  sb.head <- 0;
  if Array.length sb.newest = 0 then sb.newest <- Array.make classes (-1)

(* The last word number whose class a range [a, a + width) needs: after
   [classes] words every class has been seen. *)
let last_word a width =
  let last = (a + width - 1) lsr 3 and cap = (a lsr 3) + classes - 1 in
  if last < cap then last else cap

let enqueue sb e =
  if sb.len = Array.length sb.buf then grow sb;
  sb.buf.(slot sb sb.len) <- e;
  (match e with
  | Store { addr; width; _ } ->
      let pos = sb.base + sb.len in
      for w = addr lsr 3 to last_word addr width do
        Array.unsafe_set sb.newest (w land (classes - 1)) pos
      done
  | Clflush _ | Clflushopt _ | Sfence -> ());
  sb.len <- sb.len + 1

let dequeue sb =
  if sb.len = 0 then None
  else begin
    let e = sb.buf.(sb.head) in
    sb.buf.(sb.head) <- Sfence;
    sb.head <- slot sb 1;
    sb.len <- sb.len - 1;
    sb.base <- sb.base + 1;
    Some e
  end

let nth sb i =
  if i < 0 || i >= sb.len then invalid_arg "Store_buffer.nth";
  sb.buf.(slot sb i)

(* Where a scan for the words of [a, a + width) starts: the position (as for
   [nth]) of the newest store writing a word of one of their classes, or -1.
   No newer entry writes any of those words, so starting there is exact. *)
let rec newest_of newest w last (acc : int) =
  if w > last then acc
  else
    let pos = Array.unsafe_get newest (w land (classes - 1)) in
    newest_of newest (w + 1) last (if pos > acc then pos else acc)

let start sb a width =
  if sb.len = 0 then -1
  else
    let pos = newest_of sb.newest (a lsr 3) (last_word a width) (-1) in
    if pos < sb.base then -1 else pos - sb.base

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
  overlap_from sb.buf (Array.length sb.buf - 1) sb.head a width (start sb a width)

let rec byte_from buf mask head a i =
  if i < 0 then -1
  else
    match buf.((head + i) land mask) with
    | Store { addr; value; width; _ } when a >= addr && a < addr + width ->
        (value lsr (8 * (a - addr))) land 0xff
    | Store _ | Clflush _ | Clflushopt _ | Sfence -> byte_from buf mask head a (i - 1)

let forward_byte sb a = byte_from sb.buf (Array.length sb.buf - 1) sb.head a (start sb a 1)

let copy sb =
  if sb.len = 0 then create ()
  else
    {
      buf = Array.copy sb.buf;
      head = sb.head;
      len = sb.len;
      base = sb.base;
      newest = Array.copy sb.newest;
    }

(* Every class's newest store now sits below [base]. *)
let clear sb =
  sb.buf <- [||];
  sb.head <- 0;
  sb.base <- sb.base + sb.len;
  sb.len <- 0
