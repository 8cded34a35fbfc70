(* The redundant-flush / redundant-fence performance hints (the §5.1
   extension the paper proposes), previously computed inline by
   [Ctx.note_perf]. Low severity: they cost cycles, not data.

   All state is keyed by thread: flushes and fences order the issuing
   thread's own persist pipeline, so a store on thread A must not mask a
   redundant sfence on thread B — and two threads each flushing a line they
   both dirtied are each doing necessary work, not duplicating it. *)

let name = "redundant"

(* Flat per-thread state, indexed by thread id and grown on demand. The
   pass always runs and sees every store, flush and fence of every replay,
   so it keys lines through [Pmem.Line_table] probes and hashes nothing. *)
type state = {
  mutable pending : int array;  (* tid -> stores/flushes since its last fence *)
  mutable dirty : bool Pmem.Line_table.t array;
      (* tid -> lines it stored to since its last flush of them *)
}

let create () = { pending = [||]; dirty = [||] }

(* Makes room for [tid], whose fresh state has nothing pending or dirty. *)
let grow st tid =
  let n = Array.length st.pending in
  if tid >= n then begin
    st.pending <- Array.init (tid + 1) (fun i -> if i < n then st.pending.(i) else 0);
    st.dirty <-
      Array.init (tid + 1) (fun i ->
          if i < n then st.dirty.(i) else Pmem.Line_table.create_payload_only ~empty:false)
  end

let mark_dirty st tid addr width =
  let dirty = st.dirty.(tid) in
  for line = Pmem.Addr.line_of addr to Pmem.Addr.line_of (addr + width - 1) do
    Pmem.Line_table.(set_data dirty (find dirty line) true)
  done

(* A flush of [line] on [tid] cleans it; returns whether it was dirty. *)
let clean st tid line =
  let dirty = st.dirty.(tid) in
  let i = Pmem.Line_table.find_existing dirty line in
  let was_dirty = i >= 0 && Pmem.Line_table.data dirty i in
  if was_dirty then Pmem.Line_table.set_data dirty i false;
  was_dirty

let finding rule label line detail =
  { Report.severity = Low; pass = name; rule; labels = [ label ]; line; detail }

let fence st tid rule label detail =
  grow st tid;
  let fs = if st.pending.(tid) = 0 then [ finding rule label None detail ] else [] in
  st.pending.(tid) <- 0;
  fs

let on_event st (ev : Event.t) =
  match ev with
  | Store { addr; width; tid; _ } ->
      grow st tid;
      mark_dirty st tid addr width;
      st.pending.(tid) <- st.pending.(tid) + 1;
      []
  | Rmw { addr; width; tid; new_value; _ } ->
      (* A locked RMW carries its own mfences: its store leaves the line
         dirty (a later flush of it is useful work) and nothing stays
         unfenced behind it. The intrinsic fences are never flagged. *)
      grow st tid;
      (match new_value with Some _ -> mark_dirty st tid addr width | None -> ());
      st.pending.(tid) <- 0;
      []
  | Flush { line_addr; tid; label; _ } ->
      grow st tid;
      let fs =
        if clean st tid (Pmem.Addr.line_of line_addr) then []
        else
          [
            finding "redundant-flush" label (Some line_addr)
              "flush of a cache line with no new stores to persist";
          ]
      in
      st.pending.(tid) <- st.pending.(tid) + 1;
      fs
  | Fence { kind = Sfence; tid; label } ->
      fence st tid "redundant-fence" label "sfence with nothing pending to order"
  | Fence { kind = Mfence; tid; label } ->
      fence st tid "redundant-mfence" label "mfence with nothing pending to order"
  | Crash _ ->
      Array.fill st.pending 0 (Array.length st.pending) 0;
      Array.iter Pmem.Line_table.clear st.dirty;
      []
  | Load _ | Thread_start _ | Thread_join _ | Failure_point _ | End_execution -> []
