(* The happens-before substrate: one instance per execution, observing the
   typed event stream ahead of the detector passes and maintaining

   - per-thread clocks (ticked at every event the thread executes),
   - per-location (byte) release clocks: the clock of the last store, which
     a locked RMW joins on access — the rf-into-RMW edge that makes a
     CAS-acquire inherit the full history of a plain-store unlock,
   - per-cache-line persist state: a store generation counter plus the
     flush+fence commit edges of Px86 (a fence by the flushing thread
     commits every line it flushed, stamping the committed generation with
     the fencing thread's clock).

   Synchronisation edges encoded (Px86 / pthread):
     Thread_start   parent clock ⊑ child clock
     Thread_join    child clock ⊑ parent clock
     Rmw            joins the location's last-store clock (acquire) and
                    publishes its own clock to the location (release); also
                    commits the thread's pending flushes (its mfences)
     Fence          commits the thread's own pending flushes — NOT an
                    inter-thread edge (fences order persists, not threads)
     Crash          full reset: volatile clocks die with the machine

   Everything here is a deterministic function of the event stream, so the
   per-event clock assignment (see [snapshot]) is stable across --jobs and
   across the snapshot layer — the oracle contract source-DPOR will
   rely on. *)

type line_commit = { covers : int; at : Vector_clock.t }

type line_info = {
  mutable gen : int;  (* stores to the line since the last crash *)
  mutable commits : line_commit list;  (* newest first *)
}

type t = {
  mutable threads : Vector_clock.t array;  (* clock per tid, grown on demand *)
  loc : (int, Vector_clock.t array) Hashtbl.t;
      (* line -> per-byte last-store release clock ([Vector_clock.empty] =
         never stored). One hashtable probe per line instead of per byte —
         the passes hit this on every access, so the constant matters. *)
  lines : (int, line_info) Hashtbl.t;
  pending : (int, (int * int) list) Hashtbl.t;
      (* tid -> (line, generation covered) flushed but not yet fenced *)
  mutable events : int;  (* event ids assigned so far *)
  record : bool;
  mutable snaps : Vector_clock.t array;  (* event id -> emitting thread's clock *)
  mutable snap_len : int;
}

let create ?(record = false) () =
  {
    threads = [| Vector_clock.tick Vector_clock.empty 0 |];
    loc = Hashtbl.create 64;
    lines = Hashtbl.create 16;
    pending = Hashtbl.create 8;
    events = 0;
    record;
    snaps = (if record then Array.make 64 Vector_clock.empty else [||]);
    snap_len = 0;
  }

let clock t tid =
  if tid >= 0 && tid < Array.length t.threads then t.threads.(tid) else Vector_clock.empty

let set_clock t tid c =
  if tid >= Array.length t.threads then begin
    let grown = Array.make (tid + 1) Vector_clock.empty in
    Array.blit t.threads 0 grown 0 (Array.length t.threads);
    t.threads <- grown
  end;
  t.threads.(tid) <- c

let tick t tid = set_clock t tid (Vector_clock.tick (clock t tid) tid)

let loc_cells t line =
  match Hashtbl.find_opt t.loc line with
  | Some cells -> cells
  | None ->
      let cells = Array.make Pmem.Addr.cache_line_size Vector_clock.empty in
      Hashtbl.add t.loc line cells;
      cells

let location t b =
  match Hashtbl.find_opt t.loc (Pmem.Addr.line_of b) with
  | None -> None
  | Some cells ->
      let c = cells.(Pmem.Addr.line_offset b) in
      if Vector_clock.size c = 0 then None else Some c

(* Iterate the (line, cells, byte range) triples an access spans. *)
let iter_spanned t addr width f =
  List.iter
    (fun line ->
      let base = line * Pmem.Addr.cache_line_size in
      let lo = max addr base and hi = min (addr + width - 1) (base + Pmem.Addr.cache_line_size - 1) in
      f line (loc_cells t line) ~base ~lo ~hi)
    (Pmem.Addr.lines_spanned addr width)

let line_info t line =
  match Hashtbl.find_opt t.lines line with
  | Some li -> li
  | None ->
      let li = { gen = 0; commits = [] } in
      Hashtbl.add t.lines line li;
      li

let line_gen t line = match Hashtbl.find_opt t.lines line with Some li -> li.gen | None -> 0

(* Is the store that was generation [gen] of [line] committed by a
   flush+fence edge ordered before [before]? *)
let line_committed t line ~gen ~before =
  match Hashtbl.find_opt t.lines line with
  | None -> false
  | Some li ->
      List.exists (fun c -> c.covers >= gen && Vector_clock.leq c.at before) li.commits

let record_snapshot t c =
  if t.record then begin
    if t.snap_len = Array.length t.snaps then begin
      let grown = Array.make (max 64 (2 * t.snap_len)) Vector_clock.empty in
      Array.blit t.snaps 0 grown 0 t.snap_len;
      t.snaps <- grown
    end;
    t.snaps.(t.snap_len) <- c;
    t.snap_len <- t.snap_len + 1
  end

let events_seen t = t.events

let snapshot t id =
  if not t.record then invalid_arg "Hb.snapshot: created without ~record:true";
  if id < 0 || id >= t.snap_len then
    invalid_arg (Printf.sprintf "Hb.snapshot: event id %d out of range [0,%d)" id t.snap_len);
  t.snaps.(id)

let reset t =
  t.threads <- [| Vector_clock.tick Vector_clock.empty 0 |];
  Hashtbl.reset t.loc;
  Hashtbl.reset t.lines;
  Hashtbl.reset t.pending

let commit_pending t tid =
  match Hashtbl.find_opt t.pending tid with
  | None | Some [] -> ()
  | Some flushed ->
      let at = clock t tid in
      List.iter
        (fun (line, covers) ->
          let li = line_info t line in
          li.commits <- { covers; at } :: li.commits)
        flushed;
      Hashtbl.replace t.pending tid []

let observe t (ev : Event.t) =
  let emitter =
    match ev with
    | Store { tid; _ } | Load { tid; _ } | Rmw { tid; _ } | Flush { tid; _ }
    | Fence { tid; _ } | Failure_point { tid; _ } | Crash { tid; _ } ->
        tid
    | Thread_start { tid; _ } | Thread_join { tid; _ } -> tid
    | End_execution -> 0
  in
  (match ev with
  | Event.Store { addr; width; tid; _ } ->
      tick t tid;
      let c = clock t tid in
      iter_spanned t addr width (fun line cells ~base ~lo ~hi ->
          for b = lo to hi do
            cells.(b - base) <- c
          done;
          let li = line_info t line in
          li.gen <- li.gen + 1)
  | Load { tid; _ } ->
      (* Plain loads create no edge: making every rf a synchronisation would
         order the racing accesses we are trying to catch. *)
      tick t tid
  | Rmw { addr; width; tid; new_value; _ } ->
      tick t tid;
      (* Acquire: join the last-store clock of every byte read — the
         rf-into-RMW edge (a CAS that reads an unlock store inherits the
         unlocker's history). *)
      let acquired = ref (clock t tid) in
      iter_spanned t addr width (fun _ cells ~base ~lo ~hi ->
          for b = lo to hi do
            acquired := Vector_clock.join !acquired cells.(b - base)
          done);
      set_clock t tid !acquired;
      (* Release: a successful RMW publishes the joined clock. *)
      (match new_value with
      | Some _ ->
          let c = clock t tid in
          iter_spanned t addr width (fun line cells ~base ~lo ~hi ->
              for b = lo to hi do
                cells.(b - base) <- c
              done;
              let li = line_info t line in
              li.gen <- li.gen + 1)
      | None -> ());
      (* Its locked mfences commit the thread's pending flushes. *)
      commit_pending t tid
  | Flush { line_addr; tid; _ } ->
      tick t tid;
      let line = Pmem.Addr.line_of line_addr in
      let li = line_info t line in
      let mine = Option.value ~default:[] (Hashtbl.find_opt t.pending tid) in
      Hashtbl.replace t.pending tid ((line, li.gen) :: mine)
  | Fence { tid; _ } ->
      tick t tid;
      commit_pending t tid
  | Thread_start { tid; parent; _ } ->
      set_clock t tid (Vector_clock.tick (Vector_clock.join (clock t tid) (clock t parent)) tid);
      tick t parent
  | Thread_join { tid; parent; _ } ->
      set_clock t parent (Vector_clock.join (clock t parent) (clock t tid));
      tick t parent
  | Failure_point { tid; _ } -> tick t tid
  | Crash _ -> reset t
  | End_execution -> ());
  record_snapshot t (clock t emitter);
  t.events <- t.events + 1
