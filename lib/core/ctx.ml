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
  rf : Exec.Read_from.view;  (* the loads' line view of [stack] *)
  trace : Trace.t;
  main : Tso.Thread_state.t;  (* thread 0, reset in place at every crash *)
  mutable threads : Tso.Thread_state.t list;
  mutable cur : Tso.Thread_state.t;
  mutable next_tid : int;
  mutable steps : int;
  mutable failure_count : int;
  mutable writes_since_fp : bool;
  mutable fp_count : int;
  mutable multi_rf : multi_rf list;
  engine : Analysis.Engine.t;  (* analysis passes fed the event stream *)
  observe_loads : bool;
      (* a load event has a reader: the trace ring, or the passes that
         [analyze] adds; the always-on redundant pass ignores loads, so
         without [analyze] a load event goes to the ring alone *)
  mutable in_rmw : bool;
      (* inside a locked RMW: its constituent load/store/mfence operations
         are not mirrored as events — the RMW is one [Analysis.Event.Rmw] *)
  mutable parallel_depth : int;
  mutable atomic_depth : int;
  mutable last : string;
  mutable fp_hook : (string -> unit) option;
  mutable rng : int;  (* schedule-fuzzing PRNG state; reset per replay *)
  snapshots : Snapshot.cache option;  (* the owning worker's snapshot cache *)
  deadline : float option;
      (* the [Unix.gettimeofday] instant [config.step_deadline] after the
         context was created; the first [step] past it times out *)
}

(* The one event-emission point: the ring keeps the event unrendered (no
   formatting unless a bug report is printed) and the analysis engine feeds
   it to its passes. *)
let emit ctx ev =
  Trace.add ctx.trace ev;
  Analysis.Engine.emit ctx.engine ev

let tid ctx = Tso.Thread_state.tid ctx.cur

(* A crash has happened: its event is emitted and it counts as a failure. *)
let crashed ctx label =
  emit ctx (Analysis.Event.Crash { label; tid = tid ctx });
  ctx.failure_count <- ctx.failure_count + 1

(* At a crash under buffered eviction, a nondeterministic prefix of each
   store buffer may already have drained to the cache: one [Drain] decision
   per non-empty buffer, in thread order, picks its length. Under eager
   eviction the buffers are empty and every length is 0. *)
let drain_choices config choice threads =
  let keep = Array.make (List.length threads) 0 in
  if config.Config.evict_policy <> Config.Eager then
    List.iteri
      (fun i th ->
        let n = Tso.Store_buffer.length (Tso.Thread_state.store_buffer th) in
        if n > 0 then keep.(i) <- Choice.choose choice Choice.Drain (n + 1))
      threads;
  keep

let create ?snapshots ?resume ~config ~choice () =
  let main = Tso.Thread_state.create ~tid:0 in
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
  (* A restored replay starts at the snapshot's crash: the buffered-drain
     prefixes are live [Drain] decisions on the captured buffer lengths,
     applied by the snapshot's drained master ([Snapshot.materialize]). *)
  let stack, trace =
    match resume with
    | None ->
        (* A fresh ring per context: at the default depth of 64 it is a
           minor-heap allocation, cheaper than pooling one across replays. *)
        (Exec.Exec_stack.create (), Trace.create ~depth:config.Config.trace_depth)
    | Some (snap : Snapshot.t) ->
        Choice.fast_forward choice (Choice.point_depth snap.point);
        let records, seq =
          Snapshot.materialize snap ~keep:(drain_choices config choice snap.threads)
        in
        (Exec.Exec_stack.of_records ~seq records, Trace.copy snap.trace)
  in
  let ctx =
    {
      cfg = config;
      reg = Pmem.Region.v ~base:config.Config.region_base ~size:config.Config.region_size;
      choice;
      stack;
      rf = Exec.Read_from.view stack;
      trace;
      main;
      threads = [ main ];
      cur = main;
      next_tid = 1;
      steps = 0;
      failure_count = 0;
      writes_since_fp = true;
      fp_count = 0;
      multi_rf = [];
      engine;
      observe_loads = config.Config.trace_depth > 0 || config.Config.analyze;
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
      deadline = Option.map (fun d -> Unix.gettimeofday () +. d) config.Config.step_deadline;
    }
  in
  (match resume with
  | None -> ()
  | Some snap ->
      ctx.failure_count <- snap.failure_count;
      ctx.fp_count <- snap.fp_count;
      ctx.rng <- snap.rng;
      ctx.last <- snap.last;
      crashed ctx snap.crash_label);
  ctx

let set_failure_point_hook ctx hook = ctx.fp_hook <- Some hook

let config ctx = ctx.cfg
let region ctx = ctx.reg
let in_recovery ctx = ctx.failure_count > 0
let fp_count ctx = ctx.fp_count
let multi_rf_reports ctx = List.rev ctx.multi_rf

let analysis_findings ctx = Analysis.Engine.findings ctx.engine

(* The redundant pass's findings as performance reports, the source of
   every report's "performance issue(s)" section. *)
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

let step ctx label =
  ctx.last <- label;
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.cfg.Config.max_steps then
    raise (Bug.Found (Bug.Infinite_loop { steps = ctx.steps }, label));
  match ctx.deadline with
  | None -> ()
  | Some d ->
      if Unix.gettimeofday () >= d then
        let seconds = Option.value ~default:0. ctx.cfg.Config.step_deadline in
        raise (Bug.Found (Bug.Execution_timeout { seconds }, label))

let progress ctx ?(label = "progress") () = step ctx label

let bounds ctx addr width op label =
  if not (Pmem.Region.contains ctx.reg addr width) then
    raise (Bug.Found (Bug.Illegal_access { addr; width; op }, label))

let maybe_yield ctx = if ctx.parallel_depth > 0 && ctx.atomic_depth = 0 then Scheduler.yield ()

let eager ctx = ctx.cfg.Config.evict_policy = Config.Eager

(* --- failure injection ------------------------------------------------- *)

(* The crash itself, for injected failures and explicit crashes alike:
   each store buffer drains its chosen prefix, then the crash is emitted
   and counted and the execution unwinds. *)
let power_failure ctx label =
  let keep = drain_choices ctx.cfg ctx.choice ctx.threads in
  Tso.Thread_state.evict_prefixes ctx.threads ctx.stack
    ~evicted:(Array.make (Array.length keep) 0)
    ~keep;
  crashed ctx label;
  raise Power_failure

(* Capture-at-consideration: the snapshot is taken at every failure point the
   search considers — right after the fail/continue decision is consumed,
   before anything of the crash happens — not only when the crash is
   actually taken. Its point is the take-the-crash alternative of that
   decision, so one full replay populates the cache for every failure point
   on its path, and each crash subtree's replays resume from the restored
   state without ever re-running the pre-failure program. The [mem] check
   keeps later replays through the same point from paying for a copy
   again. Only threads with buffered stores are copied: the restored crash
   drain reads nothing else, since an empty buffer takes no [Drain]
   decision and evicts nothing (under [Eager] no thread is copied). *)
let capture_snapshot ?alt ctx ~crash_label =
  match ctx.snapshots with
  | None -> ()
  | Some cache ->
      let point = Choice.point ?alt ctx.choice in
      if not (Snapshot.mem cache point) then
        let buffered th = not (Tso.Store_buffer.is_empty (Tso.Thread_state.store_buffer th)) in
        Snapshot.store cache
          (Snapshot.capture ~point ~stack:ctx.stack ~threads:(List.filter buffered ctx.threads)
             ~trace:ctx.trace ~failure_count:ctx.failure_count ~fp_count:ctx.fp_count
             ~rng:ctx.rng ~last:ctx.last ~crash_label)

let failure_point ?(force = false) ctx label =
  if ctx.failure_count < ctx.cfg.Config.max_failures && (force || ctx.writes_since_fp) then begin
    ctx.writes_since_fp <- false;
    ctx.fp_count <- ctx.fp_count + 1;
    (match ctx.fp_hook with Some hook -> hook label | None -> ());
    emit ctx (Analysis.Event.Failure_point { label; tid = tid ctx });
    let fail = Choice.choose ctx.choice Choice.Failure_point 2 in
    capture_snapshot ~alt:1 ctx ~crash_label:(Some label);
    if fail = 1 then power_failure ctx (Some label)
  end

let after_crash ctx =
  ignore (Exec.Exec_stack.push_fresh ctx.stack);
  (* Volatile state is lost: store/flush buffers and every thread but the
     main one, which restarts empty; the step budget restarts with the new
     execution. *)
  Tso.Thread_state.reset ctx.main;
  ctx.threads <- [ ctx.main ];
  ctx.cur <- ctx.main;
  ctx.next_tid <- 1;
  ctx.steps <- 0;
  ctx.writes_since_fp <- true;
  ctx.parallel_depth <- 0;
  ctx.atomic_depth <- 0

(* An explicit crash may take the run one failure past [max_failures] (the
   litmus idiom crashes at [max_failures = 0]) but no further: [after_crash]
   restarts the step budget and every crash pushes a record, so a recovery
   that crashes on every run would otherwise recover forever. *)
let crash ctx =
  if ctx.failure_count > ctx.cfg.Config.max_failures then
    invalid_arg
      (Printf.sprintf "Ctx.crash: %d failures already, max_failures is %d" ctx.failure_count
         ctx.cfg.Config.max_failures);
  capture_snapshot ctx ~crash_label:None;
  power_failure ctx None

let finish_execution ctx =
  (* The paper also injects a failure at the end of the execution (its Fig. 4
     walkthrough), regardless of the no-writes-since-last-point optimisation. *)
  failure_point ~force:true ctx "<end of execution>";
  (* Drain only what someone reads. The failure-free original execution's
     record is read after the run (the store/flush statistics, the Yat
     oracles); after a crash, the top record is discarded at the next replay
     and nothing reads it first — evictions emit no analysis events, and
     bugs are raised before this point. *)
  if ctx.failure_count = 0 then
    List.iter (fun th -> Tso.Thread_state.sync th ctx.stack) ctx.threads;
  emit ctx Analysis.Event.End_execution

(* --- stores and flushes ------------------------------------------------ *)

(* Rejected up front, like a negative [memset] length: an out-of-range store
   would otherwise sit in the store buffer, forward its bytes to later loads
   and fail only when evicted, and a load would assemble 0 or 9+ bytes. *)
let check_width op width =
  if width < 1 || width > Pmem.Bytes_le.max_width then
    invalid_arg
      (Printf.sprintf "Ctx.%s: width %d not in [1, %d]" op width Pmem.Bytes_le.max_width)

let store ctx ?(label = "store") ~width addr v =
  check_width "store" width;
  step ctx label;
  bounds ctx addr width "store" label;
  maybe_yield ctx;
  Tso.Thread_state.exec_store ctx.cur addr ~value:v ~width ~label;
  ctx.writes_since_fp <- true;
  if not ctx.in_rmw then
    emit ctx (Analysis.Event.Store { addr; width; value = v; tid = tid ctx; label });
  if eager ctx then Tso.Thread_state.drain ctx.cur ctx.stack

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
      if opt then Tso.Thread_state.exec_clflushopt ctx.cur ctx.stack line_addr ~label
      else Tso.Thread_state.exec_clflush ctx.cur line_addr ~label;
      if eager ctx then Tso.Thread_state.drain ctx.cur ctx.stack)
    addr (max size 1);
  maybe_yield ctx

(* Like a negative [memset] length, a negative size is a caller error;
   size 0 flushes the line holding [addr], as the instruction does. *)
let check_size op size =
  if size < 0 then invalid_arg (Printf.sprintf "Ctx.%s: negative size %d" op size)

let clflush ctx ?(label = "clflush") addr size =
  check_size "clflush" size;
  flush_lines ctx ~kind:Analysis.Event.Clflush ~label addr size

let clflushopt ctx ?(label = "clflushopt") addr size =
  check_size "clflushopt" size;
  flush_lines ctx ~kind:Analysis.Event.Clflushopt ~label addr size

let clwb ctx ?(label = "clwb") addr size =
  check_size "clwb" size;
  flush_lines ctx ~kind:Analysis.Event.Clwb ~label addr size

let sfence ctx ?(label = "sfence") () =
  step ctx label;
  if not ctx.in_rmw then
    emit ctx (Analysis.Event.Fence { kind = Analysis.Event.Sfence; tid = tid ctx; label });
  Tso.Thread_state.exec_sfence ctx.cur;
  if eager ctx then Tso.Thread_state.drain ctx.cur ctx.stack;
  maybe_yield ctx

let mfence ctx ?(label = "mfence") () =
  step ctx label;
  if not ctx.in_rmw then
    emit ctx (Analysis.Event.Fence { kind = Analysis.Event.Mfence; tid = tid ctx; label });
  Tso.Thread_state.sync ctx.cur ctx.stack;
  maybe_yield ctx

(* --- loads -------------------------------------------------------------- *)

(* A byte with several read-from candidates: recorded as a multi-rf report
   when asked for, chosen by the search, then committed. Single-candidate
   bytes never get here: [Read_from.read] returns their value. *)
let choose_source ctx off addr label =
  let candidates = Exec.Read_from.candidates ctx.rf in
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
  let src = List.nth candidates k in
  Exec.Read_from.commit ctx.rf off src;
  src.Exec.Read_from.value

(* Bytes in address order, each forwarded from the store buffer when
   [forward] holds, else read through the line view, which is open on
   [addr]'s line and reopened where the load crosses into the next line.
   Only a multi-candidate byte allocates. *)
let read_bytewise ctx ~forward addr width label =
  let sb = Tso.Thread_state.store_buffer ctx.cur in
  let rf = ctx.rf in
  let off0 = Pmem.Addr.line_offset addr in
  let v = ref 0 in
  for i = 0 to width - 1 do
    let a = addr + i and off = off0 + i in
    let off =
      if off < Pmem.Addr.cache_line_size then off
      else begin
        if off = Pmem.Addr.cache_line_size then Exec.Read_from.open_line rf (Pmem.Addr.line_of a);
        off - Pmem.Addr.cache_line_size
      end
    in
    let b = if forward then Tso.Store_buffer.forward_byte sb a else -1 in
    let b =
      if b >= 0 then b
      else
        let b = Exec.Read_from.read rf off in
        if b >= 0 then b else choose_source ctx off a label
    in
    v := !v lor (b lsl (8 * i))
  done;
  !v

(* A load that stays in one line and forwards nothing first tries the word
   path, which reads all its bytes from one store in one step. *)
let read_bytes ctx ~forward addr width label =
  let off = Pmem.Addr.line_offset addr in
  Exec.Read_from.open_line ctx.rf (Pmem.Addr.line_of addr);
  if (not forward)
     && off + width <= Pmem.Addr.cache_line_size
     && Exec.Read_from.load ctx.rf off width
  then Exec.Read_from.loaded ctx.rf
  else read_bytewise ctx ~forward addr width label

(* Store-to-load forwarding, one scan per load. If the newest buffered store
   overlapping the loaded range covers all of it, every byte forwards from
   that store (no newer store touches the range), so its value shifted and
   masked to [width] bytes is exactly what the per-byte path returns.
   Otherwise the bytes come one at a time; with no overlap at all none of
   them can forward, so the store buffer is not scanned again. *)
let load_value ctx ~width addr label =
  let sb = Tso.Thread_state.store_buffer ctx.cur in
  if Tso.Store_buffer.is_empty sb then read_bytes ctx ~forward:false addr width label
  else
    match Tso.Store_buffer.newest_overlap sb addr ~width with
    | -1 -> read_bytes ctx ~forward:false addr width label
    | i -> (
        match Tso.Store_buffer.nth sb i with
        | Tso.Store_buffer.Store { addr = sa; value; width = sw; label = _ }
          when sa <= addr && addr + width <= sa + sw ->
            Pmem.Bytes_le.truncate ~width (value lsr (8 * (addr - sa)))
        | _ -> read_bytes ctx ~forward:true addr width label)

let load ctx ?(label = "load") ~width addr =
  check_width "load" width;
  step ctx label;
  bounds ctx addr width "load" label;
  maybe_yield ctx;
  let v = load_value ctx ~width addr label in
  if ctx.observe_loads && not ctx.in_rmw then begin
    let ev = Analysis.Event.Load { addr; width; value = v; tid = tid ctx; label } in
    if ctx.cfg.Config.analyze then emit ctx ev else Trace.add ctx.trace ev
  end;
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
      let seq = Exec.Exec_stack.next_seq ctx.stack in
      Exec.Exec_record.push_store record addr ~width:1 ~value ~seq ~label:"<concrete state>";
      Hashtbl.replace touched (Pmem.Addr.line_of addr) ())
    bytes;
  Hashtbl.iter
    (fun line () ->
      let seq = Exec.Exec_stack.next_seq ctx.stack in
      Exec.Exec_record.flush_line record (line * Pmem.Addr.cache_line_size) ~seq)
    touched;
  crashed ctx (Some "<concrete state>");
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
  Tso.Thread_state.sync ctx.cur ctx.stack;
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
              Tso.Thread_state.sync th ctx.stack);
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
      Tso.Thread_state.sync th ctx.stack;
      emit ctx
        (Analysis.Event.Thread_join { tid = Tso.Thread_state.tid th; parent = parent_tid; label }))
    spawned;
  (* The joined threads are dead: drop them so later crash points and
     parallel sections walk only live threads. *)
  ctx.threads <-
    List.filter (fun th -> not (List.exists (fun (s, _) -> s == th) spawned)) ctx.threads
