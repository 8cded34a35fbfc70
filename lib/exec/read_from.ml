type source = {
  exec : Exec_record.t;
  seq : int option;
  value : int;
  label : string;
}

let covers (l : Exec_record.log) k off =
  let o = Array.unsafe_get l.offs k in
  o <= off && off < o + Array.unsafe_get l.widths k

let source_of_entry exec (l : Exec_record.log) k off =
  { exec; seq = Some l.seqs.(k); value = Exec_record.byte_at l k off; label = l.labels.(k) }

let initial_source exec = { exec; seq = Some 0; value = 0; label = "<initial zero>" }

(* The line view: per record id, the line's slot and log, the log's visible
   length (the view's seq bound applied) and (below the top) the line's
   writeback interval, fetched the first time the load needs them.
   [unfetched] marks a record not yet probed since [open_line]. Slot indices
   stay valid for the whole load because no read inserts a line, and the
   cached intervals stay exact because refinements write through the view
   ([refine]). Every call into another module is a real call, so the load
   path makes few and reads the logs' arrays directly. *)
let unfetched = -2

(* Fills the log cells of records not yet fetched: slot -1's log. *)
let no_log = Exec_record.slot_log (Exec_record.initial ()) (-1)

type view = {
  stack : Exec_stack.t;
  mutable line : int;
  mutable top : int;  (* id of the top record at [open_line] *)
  mutable slots : int array;
  mutable logs : Exec_record.log array;
  mutable lens : int array;
  mutable los : int array;
  mutable his : int array;
  mutable stop : int;  (* log index of the walk's last candidate *)
  mutable found : source list;
      (* the walk's window candidates, oldest first; after [read] returns -1,
         every candidate, newest first *)
  mutable loaded : int;  (* the value of the last [load] that returned true *)
}

let view stack =
  {
    stack;
    line = 0;
    top = 0;
    slots = [||];
    logs = [||];
    lens = [||];
    los = [||];
    his = [||];
    stop = 0;
    found = [];
    loaded = 0;
  }

let open_line v line =
  let top = Exec_stack.depth v.stack in
  if top >= Array.length v.slots then begin
    let n = max 8 (2 * (top + 1)) in
    v.slots <- Array.make n unfetched;
    v.logs <- Array.make n no_log;
    v.lens <- Array.make n 0;
    v.los <- Array.make n 0;
    v.his <- Array.make n 0
  end;
  for i = 0 to top do
    Array.unsafe_set v.slots i unfetched
  done;
  v.line <- line;
  v.top <- top

let log v i =
  if Array.unsafe_get v.slots i <> unfetched then Array.unsafe_get v.logs i
  else begin
    let e = Exec_stack.nth v.stack i in
    let slot = Exec_record.line_slot e v.line in
    let l = Exec_record.slot_log e slot in
    v.slots.(i) <- slot;
    v.logs.(i) <- l;
    v.lens.(i) <- Exec_record.count_le l (Exec_record.seq_bound e);
    if i < v.top then begin
      v.los.(i) <- Exec_record.slot_lo e slot;
      v.his.(i) <- Exec_record.slot_hi e slot
    end;
    l
  end

(* The newest visible entry of record [i]'s log writing a byte of [a, b),
   or -1. *)
let newest v i a b =
  let l = log v i in
  let n = Array.unsafe_get v.lens i in
  if n = 0 then -1 else Exec_record.newest_overlap l n a b

(* Narrows record [i]'s interval to [lo, hi), in the view and in the
   record's table; only a bound that moves is written. *)
let refine v i ~lo ~hi =
  if lo > Array.unsafe_get v.los i || hi < Array.unsafe_get v.his i then begin
    v.los.(i) <- max lo v.los.(i);
    v.his.(i) <- min hi v.his.(i);
    Exec_record.refine_slot (Exec_stack.nth v.stack i) v.slots.(i) ~lo ~hi
  end

(* --- the word path ------------------------------------------------------------ *)

(* From record [i] down, the newest entry writing any byte of [a, b). If it
   writes every byte and sits in the top record, or below it at or before
   the line's last writeback, the per-byte walk would give every byte that
   entry's byte with nothing to refine: no record between it and the top
   has a visible store to any of the bytes, the entry is each byte's newest
   visible store in its record, so the window (lo, hi) holds none of them,
   the entry's seq is at most lo and there is no next store to bound hi.
   Past the last record every byte reads the initial zero, again with
   nothing to refine. Anything else is left to the per-byte walk. *)
let rec word v a b i =
  if i <= 0 then begin
    v.loaded <- 0;
    true
  end
  else
    let k = newest v i a b in
    if k < 0 then word v a b (i - 1)
    else
      let l = Array.unsafe_get v.logs i in
      let o = Array.unsafe_get l.offs k in
      o <= a
      && b <= o + Array.unsafe_get l.widths k
      && (i = v.top || Array.unsafe_get l.seqs k <= Array.unsafe_get v.los i)
      &&
      let x = Array.unsafe_get l.values k lsr (8 * (a - o)) in
      let w = b - a in
      v.loaded <- (if w = Pmem.Bytes_le.max_width then x else x land ((1 lsl (8 * w)) - 1));
      true

let load v off width = word v off (off + width) v.top
let loaded v = v.loaded

(* --- the per-byte walk --------------------------------------------------------- *)

(* ReadPreFailure (Fig. 9, lines 7-13), from record [i] down. Candidates
   from a failed execution are the stores that could have been the line's
   content at its last writeback: every store inside the open interval
   (lo, hi), plus the newest store at or before lo (the value certainly in
   PM when the guaranteed flush happened). If no store predates lo, the
   flush (if any) wrote a value inherited from an older execution, so the
   walk continues below, down to the initial image. Seqs strictly increase
   along a log, so the window is a contiguous index range of it, of which
   the entries covering the byte are the byte's window.

   Returns the id of the record holding the last candidate (0: the initial
   zero; else its log index is left in [v.stop]); the window candidates on
   the way are consed onto [v.found]. A byte whose only candidate is that
   last one allocates nothing. *)
let rec walk v off i =
  if i <= 0 then 0
  else
    let k = newest v i off (off + 1) in
    if k < 0 then walk v off (i - 1)
    else
      let l = Array.unsafe_get v.logs i and lo = Array.unsafe_get v.los i in
      if Array.unsafe_get l.seqs k <= lo then begin
        (* The byte's every visible store precedes the last writeback: the
           common case, with an empty window and no search. *)
        v.stop <- k;
        i
      end
      else
        let e = Exec_stack.nth v.stack i and hi = Array.unsafe_get v.his i in
        (* Entries [0, le_lo) have seq <= lo; the window (lo, hi) is the
           index range [le_lo, first index with seq >= hi), of which none
           past [k] covers the byte. *)
        let le_lo = Exec_record.count_le l lo in
        let below_hi = min (k + 1) (Exec_record.count_le l (hi - 1)) in
        for j = below_hi - 1 downto le_lo do
          if covers l j off then v.found <- source_of_entry e l j off :: v.found
        done;
        let s = Exec_record.newest_overlap l le_lo off (off + 1) in
        if s >= 0 then begin
          v.stop <- s;
          i
        end
        else walk v off (i - 1)

let stop_source v off s =
  let e = Exec_stack.nth v.stack s in
  if s = 0 then initial_source e else source_of_entry e (log v s) v.stop off

(* UpdateRanges (Fig. 10) for a read of log entry [k] of record [id]: each
   failed execution between it and the top must not have written the line
   back after its first store to the byte, and the source's line was
   written back within [seq, next store to the byte). *)
let commit_at v off id k =
  for i = v.top - 1 downto id + 1 do
    let l = log v i in
    let first = Exec_record.next_overlap l 0 (Array.unsafe_get v.lens i) off (off + 1) in
    if first >= 0 then refine v i ~lo:0 ~hi:l.seqs.(first)
  done;
  if id > 0 then begin
    let l = log v id in
    let next = Exec_record.next_overlap l (k + 1) v.lens.(id) off (off + 1) in
    refine v id ~lo:l.seqs.(k) ~hi:(if next < 0 then Pmem.Line_table.infinity else l.seqs.(next))
  end

let commit v off src =
  let id = Exec_record.id src.exec in
  if id < v.top then
    match src.seq with
    | Some _ when id = 0 -> commit_at v off 0 0
    | Some seq -> commit_at v off id (Exec_record.count_le (log v id) seq - 1)
    | None -> invalid_arg "Read_from.commit: a pre-failure source needs a seq"

(* BuildMayReadFrom (Fig. 9): the top record's newest store carries no
   persistency constraint and wins outright (lines 4-5); otherwise the walk
   runs below it. *)
let read v off =
  let k = newest v v.top off (off + 1) in
  if k >= 0 then Exec_record.byte_at (Array.unsafe_get v.logs v.top) k off
  else begin
    (* Skipping the store when it is already [] skips a write barrier. *)
    if v.found != [] then v.found <- [];
    let s = walk v off (v.top - 1) in
    if v.found == [] then begin
      commit_at v off s v.stop;
      if s = 0 then 0 else Exec_record.byte_at (log v s) v.stop off
    end
    else begin
      v.found <- List.rev (stop_source v off s :: v.found);
      -1
    end
  end

let candidates v = v.found

let pp_source ppf s =
  let pp_seq ppf = function
    | None -> Format.fprintf ppf "_"
    | Some n -> Format.fprintf ppf "%d" n
  in
  Format.fprintf ppf "<exec#%d %s=%d@@%a>" (Exec_record.id s.exec) s.label s.value pp_seq s.seq
