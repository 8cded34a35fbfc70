type t = {
  tid : int;
  sb : Store_buffer.t;
  fb : Flush_buffer.t;
  line_ts : int Pmem.Line_table.t;
      (* t_{τ,line}: last store/clflush to the line, as the slot's payload
         (0 for a line with none), in a table without bounds *)
  mutable fence_ts : int;  (* t_τ: last sfence *)
}

let create ~tid =
  {
    tid;
    sb = Store_buffer.create ();
    fb = Flush_buffer.create ();
    line_ts = Pmem.Line_table.create_payload_only ~empty:0;
    fence_ts = 0;
  }

let copy th =
  {
    tid = th.tid;
    sb = Store_buffer.copy th.sb;
    fb = Flush_buffer.copy th.fb;
    line_ts = Pmem.Line_table.copy th.line_ts;
    fence_ts = th.fence_ts;
  }

let tid th = th.tid
let store_buffer th = th.sb
let flush_buffer th = th.fb
let line_ts th line =
  let i = Pmem.Line_table.find_existing th.line_ts line in
  if i < 0 then 0 else Pmem.Line_table.data th.line_ts i

let set_line_ts th line seq = Pmem.Line_table.(set_data th.line_ts (find th.line_ts line) seq)

(* Phase one: enqueue (Fig. 7). *)

let exec_store th addr ~value ~width ~label =
  if width < 1 then invalid_arg "Thread_state.exec_store: empty store";
  Store_buffer.enqueue th.sb (Store_buffer.Store { addr; value; width; label })

let exec_clflush th addr ~label =
  Store_buffer.enqueue th.sb (Store_buffer.Clflush { addr; label })

let exec_clflushopt th stack addr ~label =
  Store_buffer.enqueue th.sb
    (Store_buffer.Clflushopt { addr; enq_seq = Exec.Exec_stack.cur_seq stack; label })

let exec_sfence th = Store_buffer.enqueue th.sb Store_buffer.Sfence

(* Phase two: eviction (Fig. 8). Every effect lands in the execution on top
   of the stack, stamped from the stack's sequence counter. *)

let drain_flush_buffer th stack =
  let record = Exec.Exec_stack.top stack in
  Flush_buffer.drain th.fb (fun { Flush_buffer.addr; bound } ->
      Exec.Exec_record.flush_line record addr ~seq:bound)

let apply th stack entry =
  match entry with
  | Store_buffer.Store { addr; value; width; label } ->
      (* All bytes of one store hit the cache atomically, sharing one
         sequence number (paper §4, mixed-size accesses). *)
      let seq = Exec.Exec_stack.next_seq stack in
      Exec.Exec_record.push_store (Exec.Exec_stack.top stack) addr ~width ~value ~seq ~label;
      for line = Pmem.Addr.line_of addr to Pmem.Addr.line_of (addr + width - 1) do
        set_line_ts th line seq
      done
  | Store_buffer.Clflush { addr; label = _ } ->
      let seq = Exec.Exec_stack.next_seq stack in
      Exec.Exec_record.flush_line (Exec.Exec_stack.top stack) addr ~seq;
      set_line_ts th (Pmem.Addr.line_of addr) seq
  | Store_buffer.Clflushopt { addr; enq_seq; label = _ } ->
      let line = Pmem.Addr.line_of addr in
      let bound = max enq_seq (max (line_ts th line) th.fence_ts) in
      Flush_buffer.add th.fb { Flush_buffer.addr; bound }
  | Store_buffer.Sfence ->
      let seq = Exec.Exec_stack.next_seq stack in
      drain_flush_buffer th stack;
      th.fence_ts <- seq

let evict_one th stack =
  match Store_buffer.dequeue th.sb with
  | None -> false
  | Some entry ->
      apply th stack entry;
      true

let rec drain th stack = if evict_one th stack then drain th stack

let evict_prefixes threads stack ~evicted ~keep =
  List.iteri
    (fun i th ->
      if evicted.(i) > keep.(i) then
        invalid_arg "Thread_state.evict_prefixes: more evicted than kept";
      for _ = evicted.(i) + 1 to keep.(i) do
        ignore (evict_one th stack)
      done;
      evicted.(i) <- keep.(i))
    threads

let sync th stack =
  drain th stack;
  drain_flush_buffer th stack

let reset th =
  Store_buffer.clear th.sb;
  Flush_buffer.clear th.fb;
  Pmem.Line_table.clear th.line_ts;
  th.fence_ts <- 0
