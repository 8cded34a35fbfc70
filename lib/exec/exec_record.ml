(* Stores live per cache line: the line's {!Pmem.Line_table} slot carries one
   append-only log of the stores that reached the line, next to the line's
   writeback interval. An entry is one whole store — its seq, offset, width,
   value and label in parallel unboxed arrays — so recording a store is one
   line probe plus one append, and a byte's history is the subsequence of
   entries covering it (the per-byte projection). [newest] maps each offset
   to the index of the newest entry covering it, so a live record finds a
   byte's newest store without scanning past the stores to other bytes. *)
type log = {
  mutable seqs : int array;
  mutable offs : int array;
  mutable widths : int array;
  mutable values : int array;
  mutable labels : string array;
  mutable len : int;
  newest : int array;
}

(* Array literals allocate inline, where [Array.make] is a C call. *)
let new_log () =
  {
    seqs = [| 0; 0; 0; 0 |];
    offs = [| 0; 0; 0; 0 |];
    widths = [| 0; 0; 0; 0 |];
    values = [| 0; 0; 0; 0 |];
    labels = [| ""; ""; ""; "" |];
    len = 0;
    newest = Array.make Pmem.Addr.cache_line_size (-1);
  }

(* The payload of a line no store has reached (a flush may have): never
   appended to — a line's first store replaces it with a log of its own. *)
let empty = new_log ()

type t = {
  id : int;
  lines : log Pmem.Line_table.t;
  seq_bound : int;
      (* Stores with seq > seq_bound are invisible to every read accessor:
         a snapshot view shares the live record's logs and hides the entries
         appended after the capture. [max_int] = unbounded. *)
  mutable store_count : int;
  mutable flush_count : int;
}

let create ~id =
  if id < 0 then invalid_arg "Exec_record.create: negative id";
  {
    id;
    lines = Pmem.Line_table.create ~empty;
    seq_bound = max_int;
    store_count = 0;
    flush_count = 0;
  }

let initial () = create ~id:0
let id e = e.id
let seq_bound e = e.seq_bound
let is_initial e = e.id = 0

(* --- log searches ----------------------------------------------------------- *)

(* Binary search: number of entries with seq <= s (seqs strictly increase).
   A top-level function rather than a local closure, so a search allocates
   nothing. *)
let rec count_le_in seqs s lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Array.unsafe_get seqs mid <= s then count_le_in seqs s (mid + 1) hi
    else count_le_in seqs s lo mid

(* The newest entry is checked first: an unbounded record, and a view whose
   line took no store after the capture, need no search. *)
let count_le l s =
  let n = l.len in
  if n = 0 || Array.unsafe_get l.seqs (n - 1) <= s then n else count_le_in l.seqs s 0 (n - 1)

let overlaps l k a b =
  let o = Array.unsafe_get l.offs k in
  o < b && a < o + Array.unsafe_get l.widths k

let rec scan_down l k a b = if k < 0 || overlaps l k a b then k else scan_down l (k - 1) a b

let newest_overlap l n a b =
  let k = ref (-1) in
  for j = a to b - 1 do
    let x = Array.unsafe_get l.newest j in
    if x > !k then k := x
  done;
  (* Entries at or past [n] are hidden (a view's bound, or a search below
     a seq): the index says nothing about the visible ones, so scan. *)
  if !k < n then !k else scan_down l (n - 1) a b

let rec next_overlap l k n a b =
  if k >= n then -1 else if overlaps l k a b then k else next_overlap l (k + 1) n a b

let byte_at l k off =
  (Array.unsafe_get l.values k lsr (8 * (off - Array.unsafe_get l.offs k))) land 0xff

(* --- line slots ------------------------------------------------------------- *)

(* The per-line state lives in the flat {!Pmem.Line_table}, so the bounds come
   back as plain ints. Reads probe without inserting (slot -1 for a line no
   store or flush has reached, read as [\[0, infinity)] with no stores), so
   no read grows a table; only [push_line] and [flush_line] create lines. *)
let line_slot e line = Pmem.Line_table.find_existing e.lines line
let slot_lo e slot = if slot < 0 then 0 else Pmem.Line_table.lo e.lines slot

let slot_hi e slot =
  if slot < 0 then Pmem.Line_table.infinity else Pmem.Line_table.hi e.lines slot

let slot_log e slot = if slot < 0 then empty else Pmem.Line_table.data e.lines slot

(* Refinements only reach lines a store created; slot -1 would write
   outside the table's arrays. *)
let refine_slot e slot ~lo ~hi =
  if slot < 0 then invalid_arg "Exec_record.refine_slot: no such line";
  Pmem.Line_table.raise_lo e.lines slot lo;
  Pmem.Line_table.lower_hi e.lines slot hi

let line_bounds e addr =
  let slot = line_slot e (Pmem.Addr.line_of addr) in
  (slot_lo e slot, slot_hi e slot)

let line_lo e addr = slot_lo e (line_slot e (Pmem.Addr.line_of addr))

(* --- recording -------------------------------------------------------------- *)

let grow l =
  let cap = max 8 (2 * Array.length l.seqs) in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 l.len;
    a'
  in
  l.seqs <- extend l.seqs 0;
  l.offs <- extend l.offs 0;
  l.widths <- extend l.widths 0;
  l.values <- extend l.values 0;
  l.labels <- extend l.labels ""

let append l ~off ~width ~value ~seq ~label =
  let n = l.len in
  if n > 0 && seq <= Array.unsafe_get l.seqs (n - 1) then
    invalid_arg "Exec_record.push_store: sequence numbers must increase";
  if n = Array.length l.seqs then grow l;
  Array.unsafe_set l.seqs n seq;
  Array.unsafe_set l.offs n off;
  Array.unsafe_set l.widths n width;
  Array.unsafe_set l.values n value;
  Array.unsafe_set l.labels n label;
  l.len <- n + 1;
  for j = off to off + width - 1 do
    Array.unsafe_set l.newest j n
  done

(* Records one store of [width] bytes at [addr], all of which lie in its
   line: one line probe and one append. A line's first store replaces the
   shared [empty] payload with its own log. *)
let push_line e addr ~width ~value ~seq ~label =
  let lines = e.lines in
  let slot = Pmem.Line_table.find lines (Pmem.Addr.line_of addr) in
  let l =
    let l : log = Pmem.Line_table.data lines slot in
    if l != empty then l
    else begin
      let l = new_log () in
      Pmem.Line_table.set_data lines slot l;
      l
    end
  in
  append l ~off:(Pmem.Addr.line_offset addr) ~width ~value ~seq ~label

let push_store e addr ~width ~value ~seq ~label =
  if e.seq_bound <> max_int then
    invalid_arg "Exec_record.push_store: snapshot views are read-only";
  if width < 1 || width > Pmem.Bytes_le.max_width then
    invalid_arg (Printf.sprintf "Exec_record.push_store: width %d not in [1, 8]" width);
  if addr < 0 then invalid_arg "Exec_record.push_store: negative address";
  (* A store straddling a line boundary is split at it; its tail's bytes are
     the value's higher ones. *)
  let head = min width (Pmem.Addr.cache_line_size - Pmem.Addr.line_offset addr) in
  push_line e addr ~width:head ~value ~seq ~label;
  if head < width then
    push_line e (addr + head) ~width:(width - head) ~value:(value lsr (8 * head)) ~seq ~label;
  e.store_count <- e.store_count + width

let flush_line e addr ~seq =
  let lines = e.lines in
  Pmem.Line_table.raise_lo lines (Pmem.Line_table.find lines (Pmem.Addr.line_of addr)) seq;
  e.flush_count <- e.flush_count + 1

(* --- the per-byte projection ------------------------------------------------- *)

type byte_store = { seq : int; value : int; label : string }

(* The visible part of a log is its prefix with seq <= seq_bound: the whole
   log on unbounded records (the common case). A line no store has reached
   reads [empty], whose visible length is 0, so none of the reads below
   needs a separate absent case. *)
let visible_len e l = count_le l e.seq_bound
let log_of e addr = if addr < 0 then empty else slot_log e (line_slot e (Pmem.Addr.line_of addr))

let visible_stores e addr =
  let l = log_of e addr and off = Pmem.Addr.line_offset addr in
  let rec collect k acc =
    if k < 0 then acc
    else
      let acc =
        if overlaps l k off (off + 1) then
          { seq = l.seqs.(k); value = byte_at l k off; label = l.labels.(k) } :: acc
        else acc
      in
      collect (k - 1) acc
  in
  collect (visible_len e l - 1) []

let last_store_byte e addr =
  let l = log_of e addr and off = Pmem.Addr.line_offset addr in
  let k = newest_overlap l (visible_len e l) off (off + 1) in
  if k < 0 then -1 else byte_at l k off

let next_store_seq_after e addr s =
  let l = log_of e addr and off = Pmem.Addr.line_offset addr in
  let k = next_overlap l (count_le l s) (visible_len e l) off (off + 1) in
  if k < 0 then Pmem.Line_table.infinity else l.seqs.(k)

let written_addrs e =
  Pmem.Line_table.fold
    (fun line l acc ->
      let base = line * Pmem.Addr.cache_line_size in
      let written = Array.make Pmem.Addr.cache_line_size false in
      for k = 0 to visible_len e l - 1 do
        Array.fill written l.offs.(k) l.widths.(k) true
      done;
      let acc = ref acc in
      Array.iteri (fun off w -> if w then acc := (base + off) :: !acc) written;
      !acc)
    e.lines []

(* --- snapshots ---------------------------------------------------------------- *)

(* A read-only view that stays correct while the original keeps executing,
   for the failure-point snapshot layer. Line intervals are duplicated — a
   flat array copy — because the recovery read-from analysis refines them in
   place even on buried records (UpdateRanges). The line logs are *shared*:
   entries are immutable, appends only ever add entries with larger seqs, a
   line's first store swaps [empty] for a log whose entries are all newer,
   and the view's [seq_bound] hides everything appended after the capture.
   Capture cost is therefore O(lines touched), independent of how many
   stores the pre-failure program executed. *)
let snapshot_view ?bound e =
  let seq_bound = match bound with None -> e.seq_bound | Some b -> min b e.seq_bound in
  {
    id = e.id;
    lines = Pmem.Line_table.copy e.lines;
    seq_bound;
    store_count = e.store_count;
    flush_count = e.flush_count;
  }

(* A private, physically truncated copy of a view: each line's visible
   entries are appended to a fresh log and the result is unbounded, so it
   may receive new stores. Needed for a restored top record under buffered
   eviction, where the drain at the crash pushes the surviving buffer
   entries into it. *)
let snapshot_freeze e =
  let freeze l =
    let n = visible_len e l in
    if n = 0 then empty
    else begin
      let l' = new_log () in
      for k = 0 to n - 1 do
        append l' ~off:l.offs.(k) ~width:l.widths.(k) ~value:l.values.(k) ~seq:l.seqs.(k)
          ~label:l.labels.(k)
      done;
      l'
    end
  in
  {
    id = e.id;
    lines = Pmem.Line_table.copy_map freeze e.lines;
    seq_bound = max_int;
    store_count = e.store_count;
    flush_count = e.flush_count;
  }

let store_count e = e.store_count
let flush_count e = e.flush_count
