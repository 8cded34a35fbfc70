(* Byte histories live per cache line: the line's {!Pmem.Line_table} slot
   carries a row of 64 queues, one per byte offset, next to the line's
   writeback interval. Two shared sentinels stand for what no store has
   reached — [unwritten] for a byte, [no_stores] for a whole line — and are
   never pushed into: a first store replaces them with private ones. *)
let unwritten = Store_queue.create ()
let no_stores = Array.make Pmem.Addr.cache_line_size unwritten

type t = {
  id : int;
  lines : Store_queue.t array Pmem.Line_table.t;
  seq_bound : int;
      (* Stores with seq > seq_bound are invisible to every read accessor:
         a snapshot view shares the live record's rows and hides the entries
         pushed after the capture. [max_int] = unbounded. *)
  mutable store_count : int;
  mutable flush_count : int;
}

let create ~id =
  if id < 0 then invalid_arg "Exec_record.create: negative id";
  {
    id;
    lines = Pmem.Line_table.create ~empty:no_stores;
    seq_bound = max_int;
    store_count = 0;
    flush_count = 0;
  }

let initial () = create ~id:0
let id e = e.id
let seq_bound e = e.seq_bound
let is_initial e = e.id = 0

(* Line slots: the per-line state lives in the flat {!Pmem.Line_table}, so
   the bounds come back as plain ints. Reads probe without inserting (slot
   -1 for a line no store or flush has reached, read as [\[0, infinity)]
   with no stores), so no read grows a table; only [push_line] and
   [flush_line] create lines. *)
let line_slot e line = Pmem.Line_table.find_existing e.lines line
let slot_lo e slot = if slot < 0 then 0 else Pmem.Line_table.lo e.lines slot

let slot_hi e slot =
  if slot < 0 then Pmem.Line_table.infinity else Pmem.Line_table.hi e.lines slot

let slot_row e slot = if slot < 0 then no_stores else Pmem.Line_table.data e.lines slot

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

(* Records one store of [width] little-endian bytes of [value] into the line
   starting at [addr], all of whose bytes lie in that line: one line probe,
   then one append per byte. A byte's first store replaces the shared
   sentinel with its own queue, and a line's first store its row. *)
let push_line e addr ~width ~value ~seq ~label =
  let lines = e.lines in
  let slot = Pmem.Line_table.find lines (Pmem.Addr.line_of addr) in
  let row =
    let row : Store_queue.t array = Pmem.Line_table.data lines slot in
    if row != no_stores then row
    else begin
      let row = Array.make Pmem.Addr.cache_line_size unwritten in
      Pmem.Line_table.set_data lines slot row;
      row
    end
  in
  let off = Pmem.Addr.line_offset addr in
  for i = 0 to width - 1 do
    let q = row.(off + i) and value = (value lsr (8 * i)) land 0xff in
    if q != unwritten then Store_queue.push q ~value ~seq ~label
    else row.(off + i) <- Store_queue.singleton ~value ~seq ~label
  done

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

(* Bounded store accessors: the visible history of [addr] is the queue prefix
   with seq <= seq_bound. On unbounded records (the common case) this is the
   whole queue. A byte no store has reached reads [unwritten], whose visible
   length is 0, so none of the reads below needs a separate absent case. *)
let visible_len e q = Store_queue.count_le q e.seq_bound

let queue_of e addr =
  if addr < 0 then unwritten
  else
    Array.unsafe_get
      (slot_row e (line_slot e (Pmem.Addr.line_of addr)))
      (Pmem.Addr.line_offset addr)

let visible_stores e addr =
  let q = queue_of e addr in
  let n = visible_len e q in
  if n = 0 then None else Some (q, n)

let last_store_byte e addr =
  let q = queue_of e addr in
  let n = visible_len e q in
  if n = 0 then -1 else Store_queue.value_at q (n - 1)

let next_store_seq_after e addr s =
  let r = Store_queue.next_seq_after (queue_of e addr) s in
  if r > e.seq_bound then Pmem.Line_table.infinity else r

let flush_line e addr ~seq =
  let lines = e.lines in
  Pmem.Line_table.raise_lo lines (Pmem.Line_table.find lines (Pmem.Addr.line_of addr)) seq;
  e.flush_count <- e.flush_count + 1

(* A read-only view that stays correct while the original keeps executing,
   for the failure-point snapshot layer. Line intervals are duplicated — a
   flat array copy — because the recovery read-from analysis refines them in
   place even on buried records (UpdateRanges). The rows of per-byte store
   queues are *shared* — queue entries are immutable, appends only ever add
   entries with larger seqs, a byte's first store swaps a sentinel for a
   queue whose entries are all newer, and the view's [seq_bound] hides
   everything pushed after the capture. Capture cost is therefore O(lines
   touched), independent of how many stores the pre-failure program
   executed. *)
let snapshot_view ?bound e =
  let seq_bound = match bound with None -> e.seq_bound | Some b -> min b e.seq_bound in
  {
    id = e.id;
    lines = Pmem.Line_table.copy e.lines;
    seq_bound;
    store_count = e.store_count;
    flush_count = e.flush_count;
  }

(* A private, physically truncated copy of a view: each line's row is copied,
   entries beyond the view's seq_bound are dropped and the result is
   unbounded, so it may receive new stores. Needed for a restored top record
   under buffered eviction, where the drain at the crash pushes the surviving
   buffer entries into it. *)
let snapshot_freeze e =
  let freeze_queue q =
    let n = visible_len e q in
    if n = 0 then unwritten else Store_queue.truncated_copy q n
  in
  let freeze_row row = if row == no_stores then row else Array.map freeze_queue row in
  {
    id = e.id;
    lines = Pmem.Line_table.copy_map freeze_row e.lines;
    seq_bound = max_int;
    store_count = e.store_count;
    flush_count = e.flush_count;
  }

let store_count e = e.store_count
let flush_count e = e.flush_count

let written_addrs e =
  Pmem.Line_table.fold
    (fun line row acc ->
      let base = line * Pmem.Addr.cache_line_size in
      let acc = ref acc in
      Array.iteri (fun off q -> if visible_len e q > 0 then acc := (base + off) :: !acc) row;
      !acc)
    e.lines []
