type source = {
  exec : Exec_record.t;
  seq : int option;
  value : int;
  label : string;
}

let source_of_idx exec q i =
  {
    exec;
    seq = Some (Store_queue.seq_at q i);
    value = Store_queue.value_at q i;
    label = Store_queue.label_at q i;
  }

let initial_source exec = { exec; seq = Some 0; value = 0; label = "<initial zero>" }

(* The line view: per record id, the record's seq bound, the line's slot
   and row of byte histories, and (below the top) the line's writeback
   interval, fetched the first time a byte of the load needs them.
   [unfetched] marks a record not yet probed since [open_line]. Slot
   indices stay valid for the whole load because no read inserts a line,
   and the cached intervals stay exact because refinements write through
   the view ([refine]). Every call into another module is a real call, so
   the per-byte path makes few. *)
let unfetched = -2

type view = {
  stack : Exec_stack.t;
  mutable line : int;
  mutable top : int;  (* id of the top record at [open_line] *)
  mutable bounds : int array;
  mutable slots : int array;
  mutable rows : Store_queue.t array array;
  mutable los : int array;
  mutable his : int array;
  mutable stop : int;  (* index of the walk's last candidate in its queue *)
  mutable found : source list;
      (* the walk's window candidates, oldest first; after [read] returns -1,
         every candidate, newest first *)
}

let view stack =
  {
    stack;
    line = 0;
    top = 0;
    bounds = [||];
    slots = [||];
    rows = [||];
    los = [||];
    his = [||];
    stop = 0;
    found = [];
  }

let open_line v line =
  let top = Exec_stack.depth v.stack in
  if top >= Array.length v.slots then begin
    let n = max 8 (2 * (top + 1)) in
    v.bounds <- Array.make n 0;
    v.slots <- Array.make n unfetched;
    v.rows <- Array.make n [||];
    v.los <- Array.make n 0;
    v.his <- Array.make n 0
  end;
  for i = 0 to top do
    Array.unsafe_set v.slots i unfetched
  done;
  v.line <- line;
  v.top <- top

let row v i =
  if Array.unsafe_get v.slots i <> unfetched then Array.unsafe_get v.rows i
  else begin
    let e = Exec_stack.nth v.stack i in
    let slot = Exec_record.line_slot e v.line in
    let r = Exec_record.slot_row e slot in
    v.bounds.(i) <- Exec_record.seq_bound e;
    v.slots.(i) <- slot;
    v.rows.(i) <- r;
    if i < v.top then begin
      v.los.(i) <- Exec_record.slot_lo e slot;
      v.his.(i) <- Exec_record.slot_hi e slot
    end;
    r
  end

(* Narrows record [i]'s interval to [lo, hi), in the view and in the
   record's table; only a bound that moves is written. *)
let refine v i ~lo ~hi =
  if lo > Array.unsafe_get v.los i || hi < Array.unsafe_get v.his i then begin
    v.los.(i) <- max lo v.los.(i);
    v.his.(i) <- min hi v.his.(i);
    Exec_record.refine_slot (Exec_stack.nth v.stack i) v.slots.(i) ~lo ~hi
  end

(* The byte's history in record [i] and its visible length. *)
let queue v i off = Array.unsafe_get (row v i) off
let visible v i q = Store_queue.count_le q (Array.unsafe_get v.bounds i)

(* ReadPreFailure (Fig. 9, lines 7-13), from record [i] down. Candidates
   from a failed execution are the stores that could have been the line's
   content at its last writeback: every store inside the open interval
   (lo, hi), plus the newest store at or before lo (the value certainly in
   PM when the guaranteed flush happened). If no store predates lo, the
   flush (if any) wrote a value inherited from an older execution, so the
   walk continues below, down to the initial image. Seqs strictly increase,
   so the window is a contiguous index range of the visible history.

   Returns the id of the record holding the last candidate (0: the initial
   zero; else its index is left in [v.stop]); the window candidates on the
   way are consed onto [v.found]. A byte whose only candidate is that last
   one allocates nothing. *)
let rec walk v off i =
  if i <= 0 then 0
  else
    let q = queue v i off in
    let n = visible v i q in
    if n = 0 then walk v off (i - 1)
    else
      let lo = Array.unsafe_get v.los i in
      if Store_queue.seq_at q (n - 1) <= lo then begin
        (* Every visible store precedes the last writeback: the common
           case, with an empty window and no search. *)
        v.stop <- n - 1;
        i
      end
      else
        let e = Exec_stack.nth v.stack i and hi = Array.unsafe_get v.his i in
        (* Newest index with seq <= lo, or -1; the window (lo, hi) is the
           index range (le_lo, first index with seq >= hi). *)
        let le_lo = Store_queue.count_le q lo - 1 in
        let below_hi = min n (Store_queue.count_le q (hi - 1)) in
        for k = below_hi - 1 downto le_lo + 1 do
          v.found <- source_of_idx e q k :: v.found
        done;
        if le_lo >= 0 then begin
          v.stop <- le_lo;
          i
        end
        else walk v off (i - 1)

let stop_source v off s =
  let e = Exec_stack.nth v.stack s in
  if s = 0 then initial_source e else source_of_idx e (queue v s off) v.stop

(* UpdateRanges (Fig. 10) for a read of entry [idx] of the byte's history
   in record [id]: each failed execution between it and the top must not
   have written the line back after its first store to the byte, and the
   source's line was written back within [seq, next store to the byte). *)
let commit_at v off id idx =
  for i = v.top - 1 downto id + 1 do
    let q = queue v i off in
    if visible v i q > 0 then refine v i ~lo:0 ~hi:(Store_queue.seq_at q 0)
  done;
  if id > 0 then begin
    let q = queue v id off in
    let next =
      if idx + 1 < visible v id q then Store_queue.seq_at q (idx + 1) else Pmem.Line_table.infinity
    in
    refine v id ~lo:(Store_queue.seq_at q idx) ~hi:next
  end

let commit v off src =
  let id = Exec_record.id src.exec in
  if id < v.top then
    match src.seq with
    | Some _ when id = 0 -> commit_at v off 0 0
    | Some seq -> commit_at v off id (Store_queue.count_le (queue v id off) seq - 1)
    | None -> invalid_arg "Read_from.commit: a pre-failure source needs a seq"

(* BuildMayReadFrom (Fig. 9): the top record's newest store carries no
   persistency constraint and wins outright (lines 4-5); otherwise the walk
   runs below it. *)
let read v off =
  let q = queue v v.top off in
  let n = visible v v.top q in
  if n > 0 then Store_queue.value_at q (n - 1)
  else begin
    (* Skipping the store when it is already [] skips a write barrier. *)
    if v.found != [] then v.found <- [];
    let s = walk v off (v.top - 1) in
    if v.found == [] then begin
      commit_at v off s v.stop;
      if s = 0 then 0 else Store_queue.value_at (queue v s off) v.stop
    end
    else begin
      v.found <- List.rev (stop_source v off s :: v.found);
      -1
    end
  end

let candidates v = v.found

let build_may_read_from stack addr =
  let v = view stack in
  open_line v (Pmem.Addr.line_of addr);
  let off = Pmem.Addr.line_offset addr in
  let q = queue v v.top off in
  let n = visible v v.top q in
  if n > 0 then [ { (source_of_idx (Exec_stack.top stack) q (n - 1)) with seq = None } ]
  else begin
    let s = walk v off (v.top - 1) in
    List.rev (stop_source v off s :: v.found)
  end

let do_read stack addr src =
  let v = view stack in
  open_line v (Pmem.Addr.line_of addr);
  commit v (Pmem.Addr.line_offset addr) src

let pp_source ppf s =
  let pp_seq ppf = function
    | None -> Format.fprintf ppf "_"
    | Some n -> Format.fprintf ppf "%d" n
  in
  Format.fprintf ppf "<exec#%d %s=%d@@%a>" (Exec_record.id s.exec) s.label s.value pp_seq s.seq
