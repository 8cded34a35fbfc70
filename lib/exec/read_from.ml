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

let initial_source exec =
  { exec; seq = Some 0; value = 0; label = "<initial zero>" }

(* ReadPreFailure (Fig. 9, lines 7-13). Candidates from execution [e] are the
   stores that could have been the line's content at its last writeback: every
   store inside the open interval (lo, hi), plus the newest store at or before
   lo (the value certainly in PM when the guaranteed flush happened). If no
   store predates lo, the flush (if any) wrote a value inherited from an older
   execution, so the search continues below. The visible history is indexed
   directly (seqs strictly increase, so the window is a contiguous index
   range) instead of folding boxed entries. *)
let rec read_pre_failure stack e addr =
  if Exec_record.is_initial e then [ initial_source e ]
  else
    let lo, hi = Exec_record.line_bounds e addr in
    match Exec_record.visible_stores e addr with
    | None -> read_pre_failure stack (Exec_stack.prev stack e) addr
    | Some (q, n) ->
        (* Newest index with seq <= lo, or -1; the window (lo, hi) is the
           index range (idx_le_lo, first index with seq >= hi). *)
        let idx_le_lo = Store_queue.count_le q lo - 1 in
        let below_hi = min n (Store_queue.count_le q (hi - 1)) in
        let wins = ref [] in
        (* Ascending index walk with cons leaves the newest store (highest
           index) at the head — the newest-first order callers rely on. *)
        for i = idx_le_lo + 1 to below_hi - 1 do
          wins := source_of_idx e q i :: !wins
        done;
        let wins = !wins in
        if idx_le_lo >= 0 then wins @ [ source_of_idx e q idx_le_lo ]
        else wins @ read_pre_failure stack (Exec_stack.prev stack e) addr

let build_may_read_from stack addr =
  let top = Exec_stack.top stack in
  match Exec_record.visible_stores top addr with
  | Some (q, n) ->
      (* A store of the current execution carries no persistency
         constraint: the paper's ⟨top(exec), _, val⟩ tuple. *)
      [
        {
          exec = top;
          seq = None;
          value = Store_queue.value_at q (n - 1);
          label = Store_queue.label_at q (n - 1);
        };
      ]
  | None -> read_pre_failure stack (Exec_stack.prev stack top) addr

(* UpdateRanges (Fig. 10). Walk down from the execution just below the current
   one to the source's execution, refining each line interval in place. *)
let rec update_ranges stack ec addr src =
  if Exec_record.id ec <> Exec_record.id src.exec then begin
    (match Exec_record.visible_stores ec addr with
    | Some (q, _) -> Exec_record.lower_line_hi ec addr ~seq:(Store_queue.seq_at q 0)
    | None -> ());
    update_ranges stack (Exec_stack.prev stack ec) addr src
  end
  else if Exec_record.is_initial ec then ()
  else
    match src.seq with
    | None -> assert false
    | Some seq ->
        Exec_record.raise_line_lo ec addr ~seq;
        Exec_record.lower_line_hi ec addr
          ~seq:(Exec_record.next_store_seq_after ec addr seq)

let do_read stack addr src =
  let top = Exec_stack.top stack in
  if Exec_record.id src.exec <> Exec_record.id top then
    update_ranges stack (Exec_stack.prev stack top) addr src

let pp_source ppf s =
  let pp_seq ppf = function
    | None -> Format.fprintf ppf "_"
    | Some n -> Format.fprintf ppf "%d" n
  in
  Format.fprintf ppf "<exec#%d %s=%d@@%a>" (Exec_record.id s.exec) s.label s.value pp_seq s.seq
