type result = {
  states : int;
  failure_points : int;
  behaviors : string list;
  bugs : Jaaru.Bug.t list;
  truncated : bool;
}

(* --- snapshots ----------------------------------------------------------- *)

type line_snap = {
  byte_entries : (Pmem.Addr.t * (int * int) list) list;  (* addr, (seq, value) ascending *)
  cuts : int list;  (* legal last-writeback positions: lo plus each event above it *)
}

let snapshot_record record =
  let by_line : (int, (Pmem.Addr.t * (int * int) list) list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun addr ->
      match Exec.Exec_record.visible_stores record addr with
      | [] -> ()
      | stores ->
          let entries =
            List.map (fun (st : Exec.Exec_record.byte_store) -> (st.seq, st.value)) stores
          in
          let line = Pmem.Addr.line_of addr in
          let cell =
            match Hashtbl.find_opt by_line line with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.add by_line line c;
                c
          in
          cell := (addr, entries) :: !cell)
    (List.sort compare (Exec.Exec_record.written_addrs record));
  Hashtbl.fold
    (fun line cell acc ->
      let byte_entries = List.rev !cell in
      let lo = Exec.Exec_record.line_lo record (line * Pmem.Addr.cache_line_size) in
      let events =
        List.sort_uniq compare
          (List.concat_map
             (fun (_, entries) -> List.filter_map (fun (s, _) -> if s > lo then Some s else None) entries)
             byte_entries)
      in
      { byte_entries; cuts = lo :: events } :: acc)
    by_line []
  |> List.sort compare

(* The concrete bytes of one line under a given cut: each byte holds its
   newest store at or before the cut; bytes whose stores all postdate the cut
   keep the initial zero (and can be omitted). *)
let line_bytes snap cut =
  List.filter_map
    (fun (addr, entries) ->
      let value =
        List.fold_left (fun acc (s, v) -> if s <= cut then Some v else acc) None entries
      in
      Option.map (fun v -> (addr, v)) value)
    snap.byte_entries

let enumerate_states snapshot ~limit ~f =
  let count = ref 0 in
  let truncated = ref false in
  let rec go lines acc =
    if !truncated then ()
    else
      match lines with
      | [] ->
          if !count >= limit then truncated := true
          else begin
            incr count;
            f (List.concat acc)
          end
      | snap :: rest -> List.iter (fun cut -> go rest (line_bytes snap cut :: acc)) snap.cuts
  in
  go snapshot [];
  (!count, !truncated)

(* --- running recovery on a concrete image -------------------------------- *)

let bug_of ctx kind location =
  {
    Jaaru.Bug.kind;
    location;
    exec_depth = Jaaru.Ctx.failures ctx;
    trace = Jaaru.Ctx.trace_events ctx;
    dropped = Jaaru.Ctx.trace_dropped ctx;
  }

let observe ctx post =
  match post ctx with
  | obs -> (obs, None)
  | exception Jaaru.Bug.Found (kind, location) ->
      let bug = bug_of ctx kind location in
      ("bug: " ^ Jaaru.Bug.symptom bug, Some bug)
  | exception (Jaaru.Choice.Divergence _ as e) -> raise e
  | exception Jaaru.Ctx.Power_failure -> assert false
  | exception e ->
      let bug =
        bug_of ctx
          (Jaaru.Bug.Program_exception (Jaaru.Bug.normalize_message (Printexc.to_string e)))
          (Jaaru.Ctx.last_label ctx)
      in
      ("bug: " ^ Jaaru.Bug.symptom bug, Some bug)

let check ?(config = Jaaru.Config.default) ?(state_limit = 20_000) ~pre ~post () =
  let config = { config with Jaaru.Config.max_failures = 1 } in
  (* Pass one: collect a snapshot of the persistent state space at every
     failure-injection point. *)
  let snapshots = ref [] in
  let choice = Jaaru.Choice.create () in
  let ctx = Jaaru.Ctx.create ~config ~choice () in
  Jaaru.Ctx.set_failure_point_hook ctx (fun _label ->
      snapshots := snapshot_record (Exec.Exec_stack.top (Jaaru.Ctx.exec_stack ctx)) :: !snapshots);
  pre ctx;
  Jaaru.Ctx.finish_execution ctx;
  let snapshots = List.rev !snapshots in
  (* Pass two: run recovery on every concrete state of every snapshot. *)
  let behaviors = Hashtbl.create 16 in
  let bugs = ref [] in
  let states = ref 0 in
  let truncated = ref false in
  let budget = ref state_limit in
  List.iter
    (fun snapshot ->
      let n, trunc =
        enumerate_states snapshot ~limit:!budget ~f:(fun state ->
            let choice = Jaaru.Choice.create () in
            let ctx = Jaaru.Ctx.create ~config ~choice () in
            Jaaru.Ctx.install_concrete_state ctx state;
            let obs, bug = observe ctx post in
            Hashtbl.replace behaviors obs ();
            match bug with
            | Some b when not (List.exists (Jaaru.Bug.same_report b) !bugs) -> bugs := b :: !bugs
            | Some _ | None -> ())
      in
      states := !states + n;
      budget := max 0 (!budget - n);
      if trunc then truncated := true)
    snapshots;
  {
    states = !states;
    failure_points = List.length snapshots;
    behaviors = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) behaviors []);
    bugs = List.rev !bugs;
    truncated = !truncated;
  }

(* Note: the caller's [max_failures] is respected — the default of 1 gives
   the usual every-flush injection; 0 plus an explicit [Ctx.crash] in [pre]
   gives sharp single-point litmus semantics. *)
let jaaru_behaviors ?(config = Jaaru.Config.default) ~pre ~post () =
  let choice = Jaaru.Choice.create () in
  let behaviors = Hashtbl.create 16 in
  let stop = ref false in
  while not !stop do
    Jaaru.Choice.begin_replay choice;
    let ctx = Jaaru.Ctx.create ~config ~choice () in
    (try
       pre ctx;
       Jaaru.Ctx.finish_execution ctx
     with
    | Jaaru.Ctx.Power_failure ->
        Jaaru.Ctx.after_crash ctx;
        let obs, _ = observe ctx post in
        Hashtbl.replace behaviors obs ()
    | Jaaru.Bug.Found _ -> ());
    if not (Jaaru.Choice.advance choice) then stop := true
  done;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) behaviors [])
