exception Power_failure

type multi_rf = {
  load_label : string;
  load_addr : Pmem.Addr.t;
  candidates : (string * int) list;
}

type perf_kind = Redundant_flush | Redundant_fence

type perf_report = { perf_kind : perf_kind; perf_label : string }

type t = {
  cfg : Config.t;
  reg : Pmem.Region.t;
  choice : Choice.t;
  stack : Exec.Exec_stack.t;
  seq : int ref;
  trace : Trace.t;
  mutable sink : Tso.Sink.t;
  mutable threads : Tso.Thread_state.t list;
  mutable cur : Tso.Thread_state.t;
  mutable next_tid : int;
  mutable steps : int;
  mutable failure_count : int;
  mutable writes_since_fp : bool;
  mutable fp_count : int;
  mutable multi_rf : multi_rf list;
  engine : Analysis.Engine.t;  (* analysis passes fed the event stream *)
  mutable in_rmw : bool;
      (* inside a locked RMW: its constituent load/store/mfence operations
         are not mirrored as events — the RMW is one [Analysis.Event.Rmw] *)
  mutable parallel_depth : int;
  mutable atomic_depth : int;
  mutable last : string;
  mutable fp_hook : (string -> unit) option;
  mutable rng : int;  (* schedule-fuzzing PRNG state; reset per replay *)
  snapshots : Snapshot.cache option;  (* the owning worker's snapshot cache *)
  cancel : bool Atomic.t option;
      (* watchdog flag: set by the monitor when this execution blows its
         wall-clock deadline, observed (and consumed) at the next [step] *)
}

let create ?snapshots ?cancel ~config ~choice () =
  let stack = Exec.Exec_stack.create () in
  let seq = ref 0 in
  let thread0 = Tso.Thread_state.create ~tid:0 in
  let engine =
    let hb =
      if config.Config.analyze && config.Config.analyze_hb then Some (Analysis.Hb.create ())
      else None
    in
    let passes =
      if config.Config.analyze then
        [
          Analysis.Pass.instantiate (module Analysis.Missing_flush);
          Analysis.Pass.instantiate (module Analysis.Torn_write);
        ]
        @ (match hb with
          | Some hb ->
              [
                Analysis.Pass.instantiate_hb ~hb (module Analysis.Race);
                Analysis.Pass.instantiate_hb ~hb (module Analysis.Robustness);
              ]
          | None -> [])
      else []
    in
    Analysis.Engine.create ~suppress:config.Config.suppress ?hb
      (Analysis.Pass.instantiate (module Analysis.Redundant) :: passes)
  in
  {
    cfg = config;
    reg = Pmem.Region.v ~base:config.Config.region_base ~size:config.Config.region_size;
    choice;
    stack;
    seq;
    (* A fresh ring per context: at the default depth of 64 it is a
       minor-heap allocation, cheaper than pooling one across replays. *)
    trace = Trace.create ~depth:config.Config.trace_depth;
    sink = Tso.Sink.to_exec_record ~seq (Exec.Exec_stack.top stack);
    threads = [ thread0 ];
    cur = thread0;
    next_tid = 1;
    steps = 0;
    failure_count = 0;
    writes_since_fp = true;
    fp_count = 0;
    multi_rf = [];
    engine;
    in_rmw = false;
    parallel_depth = 0;
    atomic_depth = 0;
    last = "<start>";
    fp_hook = None;
    rng =
      (match config.Config.schedule_seed with
      | Some seed -> (seed lxor 0x9e3779b9) lor 1
      | None -> 0);
    snapshots;
    cancel;
  }

let set_failure_point_hook ctx hook = ctx.fp_hook <- Some hook

let config ctx = ctx.cfg
let region ctx = ctx.reg
let in_recovery ctx = ctx.failure_count > 0
let fp_count ctx = ctx.fp_count
let multi_rf_reports ctx = List.rev ctx.multi_rf

let analysis_findings ctx = Analysis.Engine.findings ctx.engine

(* Legacy view of the redundant pass's findings, for callers of the pre-
   framework perf-report API. *)
let perf_reports ctx =
  List.filter_map
    (fun (f : Analysis.Report.finding) ->
      if f.pass <> "redundant" then None
      else
        let perf_kind = if f.rule = "redundant-flush" then Redundant_flush else Redundant_fence in
        match f.labels with [ perf_label ] -> Some { perf_kind; perf_label } | _ -> None)
    (analysis_findings ctx)

let trace_events ctx = List.map Analysis.Event.render (Trace.events ctx.trace)
let trace_dropped ctx = Trace.dropped ctx.trace
let last_label ctx = ctx.last
let exec_stack ctx = ctx.stack
let failures ctx = ctx.failure_count

(* The one event-emission point: the ring keeps the event unrendered (no
   formatting unless a bug report is printed) and the analysis engine feeds
   it to its passes. *)
let emit ctx ev =
  Trace.add ctx.trace ev;
  Analysis.Engine.emit ctx.engine ev

let tid ctx = Tso.Thread_state.tid ctx.cur

let step ctx label =
  ctx.last <- label;
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.cfg.Config.max_steps then
    raise (Bug.Found (Bug.Infinite_loop { steps = ctx.steps }, label));
  match ctx.cancel with
  | Some c when Atomic.get c ->
      (* Consume the flag so a raise swallowed by the program under test does
         not re-fire on the next replay. *)
      Atomic.set c false;
      let seconds = Option.value ~default:0. ctx.cfg.Config.step_deadline in
      raise (Bug.Found (Bug.Execution_timeout { seconds }, label))
  | _ -> ()

let progress ctx ?(label = "progress") () = step ctx label

let bounds ctx addr width op label =
  if not (Pmem.Region.contains ctx.reg addr width) then
    raise (Bug.Found (Bug.Illegal_access { addr; width; op }, label))

let maybe_yield ctx = if ctx.parallel_depth > 0 && ctx.atomic_depth = 0 then Scheduler.yield ()

let eager ctx = ctx.cfg.Config.evict_policy = Config.Eager

(* --- failure injection ------------------------------------------------- *)

(* Buffered policy only: at a crash, a nondeterministic prefix of each store
   buffer may already have drained to the cache. *)
let drain_choices ctx =
  List.iter
    (fun th ->
      let n = Tso.Store_buffer.length (Tso.Thread_state.store_buffer th) in
      if n > 0 then begin
        let keep = Choice.choose ctx.choice Choice.Drain (n + 1) in
        for _ = 1 to keep do
          ignore (Tso.Thread_state.evict_one th ctx.sink)
        done
      end)
    ctx.threads

(* Capture-at-consideration: the snapshot is taken at every failure point the
   search considers — before the fail/continue decision — not only when the
   crash is actually taken. One full replay therefore populates the cache for
   every failure point on its path, and each crash subtree's replays resume
   from the restored state without ever re-running the pre-failure program.
   The [mem] check keeps later replays through the same point from paying for
   a copy again. *)
let capture_snapshot ctx ~crash_label ~pending_failure =
  match ctx.snapshots with
  | None -> ()
  | Some cache ->
      let key =
        if pending_failure then Snapshot.failure_key ctx.choice
        else Snapshot.crash_key ctx.choice
      in
      if not (Snapshot.mem cache key) then
        Snapshot.store cache
          (Snapshot.capture ~key ~stack:ctx.stack ~seq:!(ctx.seq) ~threads:ctx.threads
             ~trace:ctx.trace ~failure_count:ctx.failure_count ~fp_count:ctx.fp_count
             ~rng:ctx.rng ~last:ctx.last ~crash_label)

let failure_point ?(force = false) ctx label =
  if ctx.failure_count < ctx.cfg.Config.max_failures && (force || ctx.writes_since_fp) then begin
    ctx.writes_since_fp <- false;
    ctx.fp_count <- ctx.fp_count + 1;
    (match ctx.fp_hook with Some hook -> hook label | None -> ());
    emit ctx (Analysis.Event.Failure_point { label; tid = tid ctx });
    capture_snapshot ctx ~crash_label:(Some label) ~pending_failure:true;
    match Choice.choose ctx.choice Choice.Failure_point 2 with
    | 0 -> ()
    | _ ->
        if not (eager ctx) then drain_choices ctx;
        emit ctx (Analysis.Event.Crash { label = Some label; tid = tid ctx });
        ctx.failure_count <- ctx.failure_count + 1;
        raise Power_failure
  end

let after_crash ctx =
  let record = Exec.Exec_stack.push_fresh ctx.stack in
  ctx.sink <- Tso.Sink.to_exec_record ~seq:ctx.seq record;
  (* Volatile state is lost: store/flush buffers, every thread but a fresh
     main one, and the step budget restart with the new execution. *)
  let thread0 = Tso.Thread_state.create ~tid:0 in
  ctx.threads <- [ thread0 ];
  ctx.cur <- thread0;
  ctx.next_tid <- 1;
  ctx.steps <- 0;
  ctx.writes_since_fp <- true;
  ctx.parallel_depth <- 0;
  ctx.atomic_depth <- 0

let crash ctx =
  capture_snapshot ctx ~crash_label:None ~pending_failure:false;
  if not (eager ctx) then drain_choices ctx;
  emit ctx (Analysis.Event.Crash { label = None; tid = tid ctx });
  ctx.failure_count <- ctx.failure_count + 1;
  raise Power_failure

(* The restore half of the snapshot layer: put the context into exactly the
   state the matching replay would have at the captured crash — restored
   execution stack, sequence counter, thread buffers and trace ring, cursor
   fast-forwarded past the snapshot's decisions — then take the crash the way
   [failure_point] / [crash] would, with the buffered-drain prefix still a
   live [Choice.Drain] decision on the restored buffers. The caller runs
   recovery next; it never re-executes the pre-failure program. *)
let resume_from_snapshot ctx (snap : Snapshot.t) =
  Choice.fast_forward ctx.choice (Array.length snap.Snapshot.key);
  let records, threads = Snapshot.materialize ~deep_top:(not (eager ctx)) snap in
  Exec.Exec_stack.restore ctx.stack records;
  ctx.seq := snap.Snapshot.seq;
  ctx.sink <- Tso.Sink.to_exec_record ~seq:ctx.seq (Exec.Exec_stack.top ctx.stack);
  ctx.threads <- threads;
  Trace.restore ctx.trace ~from:snap.Snapshot.trace;
  ctx.failure_count <- snap.Snapshot.failure_count;
  ctx.fp_count <- snap.Snapshot.fp_count;
  ctx.rng <- snap.Snapshot.rng;
  ctx.last <- snap.Snapshot.last;
  if not (eager ctx) then drain_choices ctx;
  emit ctx (Analysis.Event.Crash { label = snap.Snapshot.crash_label; tid = tid ctx });
  ctx.failure_count <- ctx.failure_count + 1

let finish_execution ctx =
  (* The paper also injects a failure at the end of the execution (its Fig. 4
     walkthrough), regardless of the no-writes-since-last-point optimisation. *)
  failure_point ~force:true ctx "<end of execution>";
  List.iter
    (fun th ->
      Tso.Thread_state.drain th ctx.sink;
      Tso.Thread_state.drain_flush_buffer th ctx.sink)
    ctx.threads;
  emit ctx Analysis.Event.End_execution

(* --- stores and flushes ------------------------------------------------ *)

let store ctx ?(label = "store") ~width addr v =
  step ctx label;
  bounds ctx addr width "store" label;
  maybe_yield ctx;
  Tso.Thread_state.exec_store ctx.cur addr ~value:v ~width ~label;
  ctx.writes_since_fp <- true;
  if not ctx.in_rmw then
    emit ctx (Analysis.Event.Store { addr; width; value = v; tid = tid ctx; label });
  if eager ctx then Tso.Thread_state.drain ctx.cur ctx.sink

let flush_lines ctx ~kind ~label addr size =
  bounds ctx addr (max size 1) "flush" label;
  (* clwb shares clflushopt's reordering semantics (paper §2) but is a
     distinct instruction: traces and analysis passes see the real kind. *)
  let opt = match kind with Analysis.Event.Clflush -> false | Clflushopt | Clwb -> true in
  Pmem.Addr.iter_lines_spanned
    (fun line ->
      let line_addr = line * Pmem.Addr.cache_line_size in
      failure_point ctx label;
      step ctx label;
      emit ctx (Analysis.Event.Flush { line_addr; kind; tid = tid ctx; label });
      if opt then Tso.Thread_state.exec_clflushopt ctx.cur ctx.sink line_addr ~label
      else Tso.Thread_state.exec_clflush ctx.cur line_addr ~label;
      if eager ctx then Tso.Thread_state.drain ctx.cur ctx.sink)
    addr (max size 1);
  maybe_yield ctx

let clflush ctx ?(label = "clflush") addr size =
  flush_lines ctx ~kind:Analysis.Event.Clflush ~label addr size

let clflushopt ctx ?(label = "clflushopt") addr size =
  flush_lines ctx ~kind:Analysis.Event.Clflushopt ~label addr size

let clwb ctx ?(label = "clwb") addr size =
  flush_lines ctx ~kind:Analysis.Event.Clwb ~label addr size

let sfence ctx ?(label = "sfence") () =
  step ctx label;
  if not ctx.in_rmw then
    emit ctx (Analysis.Event.Fence { kind = Analysis.Event.Sfence; tid = tid ctx; label });
  Tso.Thread_state.exec_sfence ctx.cur;
  if eager ctx then Tso.Thread_state.drain ctx.cur ctx.sink;
  maybe_yield ctx

let mfence ctx ?(label = "mfence") () =
  step ctx label;
  if not ctx.in_rmw then
    emit ctx (Analysis.Event.Fence { kind = Analysis.Event.Mfence; tid = tid ctx; label });
  Tso.Thread_state.exec_mfence ctx.cur ctx.sink;
  maybe_yield ctx

(* --- loads -------------------------------------------------------------- *)

(* Reads whose single candidate lives in the current execution — a store-
   buffer bypass hit or a store this execution already made — carry no
   persistency constraint ([do_read] is a no-op for them), record no multi-rf
   report and consume no choice. [read_byte_slow] handles the rest; the fast
   checks here allocate nothing. *)
let read_byte_slow ctx addr label =
  let candidates = Exec.Read_from.build_may_read_from ctx.stack addr in
  let src =
    match candidates with
    | [] -> assert false (* the initial image backstops the recursion *)
    | [ only ] -> only
    | _ :: _ ->
        if ctx.cfg.Config.report_multi_rf then
          ctx.multi_rf <-
            {
              load_label = label;
              load_addr = addr;
              candidates =
                List.map (fun s -> (s.Exec.Read_from.label, s.Exec.Read_from.value)) candidates;
            }
            :: ctx.multi_rf;
        let k = Choice.choose ctx.choice Choice.Read_from (List.length candidates) in
        List.nth candidates k
  in
  Exec.Read_from.do_read ctx.stack addr src;
  src.Exec.Read_from.value

let read_byte ctx addr label =
  match Tso.Thread_state.bypass ctx.cur addr with
  | Some (value, _) -> value
  | None ->
      let b = Exec.Exec_record.last_store_byte (Exec.Exec_stack.top ctx.stack) addr in
      if b >= 0 then b else read_byte_slow ctx addr label

let load ctx ?(label = "load") ~width addr =
  step ctx label;
  bounds ctx addr width "load" label;
  maybe_yield ctx;
  let v = ref 0 in
  for i = 0 to width - 1 do
    v := !v lor (read_byte ctx (addr + i) label lsl (8 * i))
  done;
  let v = !v in
  if not ctx.in_rmw then
    emit ctx (Analysis.Event.Load { addr; width; value = v; tid = tid ctx; label });
  v

let store8 ctx ?label addr v = store ctx ?label ~width:1 addr v
let store16 ctx ?label addr v = store ctx ?label ~width:2 addr v
let store32 ctx ?label addr v = store ctx ?label ~width:4 addr v
let store64 ctx ?label addr v = store ctx ?label ~width:8 addr v
let load8 ctx ?label addr = load ctx ?label ~width:1 addr
let load16 ctx ?label addr = load ctx ?label ~width:2 addr
let load32 ctx ?label addr = load ctx ?label ~width:4 addr
let load64 ctx ?label addr = load ctx ?label ~width:8 addr

(* --- bulk helpers -------------------------------------------------------- *)

let memset ctx ?(label = "memset") addr byte len =
  if len < 0 then invalid_arg "Ctx.memset: negative length";
  bounds ctx addr (max len 1) "store" label;
  let byte = byte land 0xff in
  let word = Pmem.Bytes_le.implode [ byte; byte; byte; byte; byte; byte; byte; byte ] in
  let rec go addr len =
    if len >= 8 then begin
      store ctx ~label ~width:8 addr word;
      go (addr + 8) (len - 8)
    end
    else if len > 0 then begin
      store ctx ~label ~width:1 addr byte;
      go (addr + 1) (len - 1)
    end
  in
  go addr len

let memcpy ctx ?(label = "memcpy") ~dst ~src len =
  if len < 0 then invalid_arg "Ctx.memcpy: negative length";
  bounds ctx src (max len 1) "load" label;
  bounds ctx dst (max len 1) "store" label;
  if dst > src && dst < src + len then
    invalid_arg "Ctx.memcpy: overlapping forward copy unsupported";
  let rec go i len =
    if len >= 8 then begin
      store ctx ~label ~width:8 (dst + i) (load ctx ~label ~width:8 (src + i));
      go (i + 8) (len - 8)
    end
    else if len > 0 then begin
      store ctx ~label ~width:1 (dst + i) (load ctx ~label ~width:1 (src + i));
      go (i + 1) (len - 1)
    end
  in
  go 0 len

let memset_persist ctx ?(label = "memset_persist") addr byte len =
  memset ctx ~label addr byte len;
  if len > 0 then begin
    flush_lines ctx ~kind:Analysis.Event.Clwb ~label addr len;
    sfence ctx ~label ()
  end

let memcpy_persist ctx ?(label = "memcpy_persist") ~dst ~src len =
  memcpy ctx ~label ~dst ~src len;
  if len > 0 then begin
    flush_lines ctx ~kind:Analysis.Event.Clwb ~label dst len;
    sfence ctx ~label ()
  end

(* --- locked RMW --------------------------------------------------------- *)

let atomically ctx f =
  ctx.atomic_depth <- ctx.atomic_depth + 1;
  Fun.protect ~finally:(fun () -> ctx.atomic_depth <- ctx.atomic_depth - 1) f

(* The constituent mfence/load/store operations run with their full TSO
   semantics but are not mirrored as events ([in_rmw]): the analysis passes
   see one [Rmw] event carrying the observed and stored values, emitted
   after the instruction completes — a locked RMW is one synchronisation
   point, and the happens-before engine gives it acquire-release semantics
   that the constituent plain accesses must not dilute. *)
let rmw64 ctx label addr f =
  maybe_yield ctx;
  atomically ctx (fun () ->
      ctx.in_rmw <- true;
      let old, stored =
        Fun.protect
          ~finally:(fun () -> ctx.in_rmw <- false)
          (fun () ->
            mfence ctx ~label ();
            let old = load ctx ~label ~width:8 addr in
            let stored =
              match f old with
              | None -> None
              | Some desired ->
                  store ctx ~label ~width:8 addr desired;
                  Some desired
            in
            mfence ctx ~label ();
            (old, stored))
      in
      emit ctx
        (Analysis.Event.Rmw
           { addr; width = 8; old_value = old; new_value = stored; tid = tid ctx; label });
      old)

let cas64 ctx ?(label = "cas64") addr ~expected ~desired =
  let old = rmw64 ctx label addr (fun v -> if v = expected then Some desired else None) in
  old = expected

let xchg64 ctx ?(label = "xchg64") addr v = rmw64 ctx label addr (fun _ -> Some v)

let fetch_add64 ctx ?(label = "fetch_add64") addr delta =
  rmw64 ctx label addr (fun v -> Some (v + delta))

(* --- assertions and threads --------------------------------------------- *)

let check ctx ?(label = "assert") cond msg =
  step ctx label;
  if not cond then raise (Bug.Found (Bug.Assertion_failure msg, label))

let abort ctx ?(label = "abort") msg =
  step ctx label;
  raise (Bug.Found (Bug.Assertion_failure msg, label))

let install_concrete_state ctx bytes =
  let record = Exec.Exec_stack.top ctx.stack in
  let touched = Hashtbl.create 16 in
  List.iter
    (fun (addr, value) ->
      bounds ctx addr 1 "store" "<concrete state>";
      incr ctx.seq;
      Exec.Exec_record.push_store record addr ~value ~seq:!(ctx.seq) ~label:"<concrete state>";
      Hashtbl.replace touched (Pmem.Addr.line_of addr) ())
    bytes;
  Hashtbl.iter
    (fun line () ->
      incr ctx.seq;
      Exec.Exec_record.flush_line record (line * Pmem.Addr.cache_line_size) ~seq:!(ctx.seq))
    touched;
  emit ctx (Analysis.Event.Crash { label = Some "<concrete state>"; tid = tid ctx });
  ctx.failure_count <- ctx.failure_count + 1;
  after_crash ctx

(* xorshift with the low bits mixed out; deterministic given the seed, and
   the state is re-seeded at every replay so the DFS stays sound. *)
let next_rand ctx bound =
  let x = ctx.rng in
  let x = x lxor (x lsl 13) land max_int in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) land max_int in
  ctx.rng <- x;
  x lsr 11 mod bound

let parallel ctx ?(label = "parallel") bodies =
  (* Spawning is a synchronisation edge (pthread_create implies
     happens-before): the parent's buffered stores and flushes become
     visible before any fiber runs. *)
  Tso.Thread_state.drain ctx.cur ctx.sink;
  Tso.Thread_state.drain_flush_buffer ctx.cur ctx.sink;
  let parent_tid = tid ctx in
  let spawned =
    List.map
      (fun body ->
        let th = Tso.Thread_state.create ~tid:ctx.next_tid in
        ctx.next_tid <- ctx.next_tid + 1;
        (th, body))
      bodies
  in
  List.iter
    (fun (th, _) ->
      emit ctx
        (Analysis.Event.Thread_start { tid = Tso.Thread_state.tid th; parent = parent_tid; label }))
    spawned;
  (* One append for the whole section: the live-thread list grows by the
     section's fibers, not once per spawn over an ever-longer history. *)
  ctx.threads <- ctx.threads @ List.map fst spawned;
  let fibers =
    List.map
      (fun (th, body) ->
        {
          Scheduler.enter = (fun () -> ctx.cur <- th);
          body =
            (fun () ->
              body ctx;
              (* Thread exit is a synchronisation edge too: without it a
                 final release store (e.g. an unlock) could stay buffered
                 until the join while a sibling spins on it forever. *)
              Tso.Thread_state.drain th ctx.sink;
              Tso.Thread_state.drain_flush_buffer th ctx.sink);
        })
      spawned
  in
  let parent = ctx.cur in
  ctx.parallel_depth <- ctx.parallel_depth + 1;
  let pick =
    match ctx.cfg.Config.schedule_seed with
    | None -> fun _ -> 0
    | Some _ -> fun n -> next_rand ctx n
  in
  Fun.protect
    ~finally:(fun () ->
      ctx.parallel_depth <- ctx.parallel_depth - 1;
      ctx.cur <- parent)
    (fun () -> Scheduler.run_fibers ~pick fibers);
  (* Joining is a synchronisation edge for the joined threads — and only for
     them: the section's fibers drain, the parent's own buffered state stays
     buffered past the join. This must NOT happen when a power failure
     unwinds the section — buffered state dies with the threads — which is
     why it sits after run_fibers rather than in the finally (the fibers
     then stay in [ctx.threads] for the crash's drain decisions, and
     [after_crash] resets the list). *)
  List.iter
    (fun (th, _) ->
      Tso.Thread_state.drain th ctx.sink;
      Tso.Thread_state.drain_flush_buffer th ctx.sink;
      emit ctx
        (Analysis.Event.Thread_join { tid = Tso.Thread_state.tid th; parent = parent_tid; label }))
    spawned;
  (* The joined threads are dead: drop them so later crash points and
     parallel sections walk only live threads. *)
  ctx.threads <-
    List.filter (fun th -> not (List.exists (fun (s, _) -> s == th) spawned)) ctx.threads
