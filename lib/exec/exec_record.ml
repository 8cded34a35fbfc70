type t = {
  id : int;
  queues : (Pmem.Addr.t, Store_queue.t) Hashtbl.t;
  lines : Pmem.Line_table.t;
  seq_bound : int;
      (* Stores with seq > seq_bound are invisible to every read accessor:
         a snapshot view shares the live record's queue table and hides the
         entries pushed after the capture. [max_int] = unbounded. *)
  mutable store_count : int;
  mutable flush_count : int;
}

let create ~id =
  if id < 0 then invalid_arg "Exec_record.create: negative id";
  {
    id;
    queues = Hashtbl.create 64;
    lines = Pmem.Line_table.create ();
    seq_bound = max_int;
    store_count = 0;
    flush_count = 0;
  }

let initial () = create ~id:0
let id e = e.id
let is_initial e = e.id = 0

let queue e addr =
  match Hashtbl.find_opt e.queues addr with
  | Some q -> q
  | None ->
      let q = Store_queue.create () in
      Hashtbl.add e.queues addr q;
      q

(* Line-interval reads: the per-line state lives in the flat
   {!Pmem.Line_table}, so the bounds come back as plain ints. The slot index
   is only valid until the next insertion, hence the immediate reads. *)
let line_lo e addr =
  let lines = e.lines in
  Pmem.Line_table.lo lines (Pmem.Line_table.find lines (Pmem.Addr.line_of addr))

let line_bounds e addr =
  let lines = e.lines in
  let slot = Pmem.Line_table.find lines (Pmem.Addr.line_of addr) in
  (Pmem.Line_table.lo lines slot, Pmem.Line_table.hi lines slot)

let raise_line_lo e addr ~seq =
  let lines = e.lines in
  Pmem.Line_table.raise_lo lines (Pmem.Line_table.find lines (Pmem.Addr.line_of addr)) seq

let lower_line_hi e addr ~seq =
  let lines = e.lines in
  Pmem.Line_table.lower_hi lines (Pmem.Line_table.find lines (Pmem.Addr.line_of addr)) seq

let push_store e addr ~value ~seq ~label =
  if e.seq_bound <> max_int then
    invalid_arg "Exec_record.push_store: snapshot views are read-only";
  Store_queue.push (queue e addr) ~value ~seq ~label;
  e.store_count <- e.store_count + 1

(* Bounded store accessors: the visible history of [addr] is the queue prefix
   with seq <= seq_bound. On unbounded records (the common case) this is the
   whole queue. *)
let visible_len e q =
  if e.seq_bound = max_int then Store_queue.length q else Store_queue.count_le q e.seq_bound

let visible_stores e addr =
  match Hashtbl.find_opt e.queues addr with
  | None -> None
  | Some q ->
      let n = visible_len e q in
      if n = 0 then None else Some (q, n)

let last_store_byte e addr =
  match Hashtbl.find_opt e.queues addr with
  | None -> -1
  | Some q ->
      let n = visible_len e q in
      if n = 0 then -1 else Store_queue.value_at q (n - 1)

let next_store_seq_after e addr s =
  match visible_stores e addr with
  | None -> Pmem.Line_table.infinity
  | Some (q, _) ->
      let r = Store_queue.next_seq_after q s in
      if r > e.seq_bound then Pmem.Line_table.infinity else r

let flush_line e addr ~seq =
  raise_line_lo e addr ~seq;
  e.flush_count <- e.flush_count + 1

(* A read-only view that stays correct while the original keeps executing,
   for the failure-point snapshot layer. Line intervals are duplicated — a
   flat three-blit copy — because the recovery read-from analysis refines
   them in place even on buried records (UpdateRanges). The per-byte store
   queues are *shared* — queue entries are immutable, appends only ever add
   entries with larger seqs, and the view's [seq_bound] hides everything
   pushed after the capture. Capture cost is therefore O(lines touched),
   independent of how many stores the pre-failure program executed. *)
let snapshot_view ?bound e =
  let seq_bound = match bound with None -> e.seq_bound | Some b -> min b e.seq_bound in
  {
    id = e.id;
    queues = e.queues;
    lines = Pmem.Line_table.copy e.lines;
    seq_bound;
    store_count = e.store_count;
    flush_count = e.flush_count;
  }

(* A private, physically truncated copy of a view: entries beyond the view's
   seq_bound are dropped and the result is unbounded, so it may receive new
   stores. Needed for a restored top record under buffered eviction, where
   the drain at the crash pushes the surviving buffer entries into it. *)
let snapshot_freeze e =
  let queues = Hashtbl.create (max 16 (Hashtbl.length e.queues)) in
  Hashtbl.iter
    (fun addr q ->
      let n = visible_len e q in
      if n > 0 then Hashtbl.add queues addr (Store_queue.truncated_copy q n))
    e.queues;
  {
    id = e.id;
    queues;
    lines = Pmem.Line_table.copy e.lines;
    seq_bound = max_int;
    store_count = e.store_count;
    flush_count = e.flush_count;
  }

let store_count e = e.store_count
let flush_count e = e.flush_count

let written_addrs e =
  Hashtbl.fold
    (fun addr q acc -> if visible_len e q > 0 then addr :: acc else acc)
    e.queues []
