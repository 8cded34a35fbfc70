type scenario = { name : string; pre : Ctx.t -> unit; post : Ctx.t -> unit }

let scenario ~name ~pre ~post = { name; pre; post }
let scenario_single ~name main = { name; pre = main; post = main }

type outcome = {
  bugs : Bug.t list;
  stats : Stats.t;
  multi_rf : Ctx.multi_rf list;
  perf : Ctx.perf_report list;
  findings : Analysis.Report.finding list;
  frontier : string list;
}

let empty =
  { bugs = []; stats = Stats.zero; multi_rf = []; perf = []; findings = []; frontier = [] }

(* The one conversion between outcomes and checkpoints: a checkpoint is an
   outcome plus the fingerprint of the tree it belongs to. *)
let to_checkpoint ~config scn o =
  Checkpoint.make
    ~fingerprint:(Checkpoint.fingerprint ~workload:scn.name config)
    ~frontier:o.frontier ~bugs:o.bugs ~multi_rf:o.multi_rf ~perf:o.perf ~findings:o.findings
    ~stats:o.stats

let of_checkpoint (cp : Checkpoint.t) =
  {
    bugs = cp.bugs;
    stats = cp.stats;
    multi_rf = cp.multi_rf;
    perf = cp.perf;
    findings = cp.findings;
    frontier = cp.frontier;
  }

(* The CLI's signal handlers (and tests) request a cooperative stop through
   this process-global flag: workers poll it between replays. It is only
   cleared explicitly — a SIGINT that lands while a checkpoint is being
   written must still stop the next round. *)
let interrupt_flag = Atomic.make false

(* How many times an interrupt has been requested since the last clear.
   Workers only poll the boolean; the count lets the CLI escalate — a second
   SIGINT while the first cooperative stop is still winding down means the
   user wants out *now*, not after the current replays finish. *)
let interrupt_count = Atomic.make 0

let request_interrupt () =
  Atomic.set interrupt_flag true;
  Atomic.incr interrupt_count

let clear_interrupt () =
  Atomic.set interrupt_flag false;
  Atomic.set interrupt_count 0

let interrupts_requested () = Atomic.get interrupt_count

(* Why a round of exploration stopped. The first trigger wins: [Capped] and
   [First_bug] come from the replays, [Limit] from the {!Monitor} checks the
   workers make between replays. [Limit Tick] alone continues with another
   round (after writing a checkpoint). *)
type stop_reason = Capped | First_bug | Limit of Monitor.reason

(* One complete scenario execution: run the pre-failure program; every
   injected failure aborts the current execution and starts the recovery
   program on the surviving persistent state. A context resumed from a
   snapshot already stands at the captured crash, so only recovery runs —
   the pre-failure program (and any captured recovery prefix) is
   skipped. *)
let replay_once scn ctx =
  let rec recover () =
    Ctx.after_crash ctx;
    try
      scn.post ctx;
      Ctx.finish_execution ctx
    with Ctx.Power_failure -> recover ()
  in
  if Ctx.in_recovery ctx then recover ()
  else
    try
      scn.pre ctx;
      Ctx.finish_execution ctx
    with Ctx.Power_failure -> recover ()

(* Deduplicating accumulators. To keep the outcome identical for every
   [jobs] value, deduplication cannot keep the first-discovered
   representative (discovery order depends on the work schedule): each key
   keeps the least representative under polymorphic compare, which is the
   same record no matter how the executions were partitioned. *)
let keep_min tbl key v = match Hashtbl.find_opt tbl key with
  | None -> Hashtbl.replace tbl key v
  | Some prev -> if compare v prev < 0 then Hashtbl.replace tbl key v

(* Deterministic rendering order of the merge tables, shared by each worker
   and [merge_outcomes]: sorted lists, so the result is independent of
   hash-table iteration order and of how the explored tree was partitioned. *)
let sorted_reports ~bug_tbl ~multi_rf_tbl ~perf_tbl ~findings_tbl =
  let bugs = List.sort compare (Hashtbl.fold (fun _ b acc -> b :: acc) bug_tbl []) in
  let multi_rf =
    List.sort
      (fun a b ->
        compare (a.Ctx.load_label, a.Ctx.load_addr) (b.Ctx.load_label, b.Ctx.load_addr))
      (Hashtbl.fold (fun _ r acc -> r :: acc) multi_rf_tbl [])
  in
  let perf = List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) perf_tbl []) in
  let findings =
    List.sort Analysis.Report.compare_finding
      (Hashtbl.fold (fun f () acc -> f :: acc) findings_tbl [])
  in
  (bugs, multi_rf, perf, findings)

(* [reserved] hands out global execution slots so the [max_executions]
   budget holds across workers. Bounded CAS rather than fetch-and-add: the
   counter never overshoots the budget, so a denied reservation — the only
   thing that sets [capped] — by construction means an unexplored replay was
   pending. A run whose tree needs exactly [max_executions] replays reserves
   every slot and is never denied: it reports as exhausted, not cut short. *)
let reserve_slot reserved ~budget =
  let rec loop () =
    let cur = Atomic.get reserved in
    if cur >= budget then false
    else if Atomic.compare_and_set reserved cur (cur + 1) then true
    else loop ()
  in
  loop ()

(* The per-worker replay loop: drain subtree tasks off the frontier until
   the exploration completes or is stopped. [stopped] is the cooperative
   stop flag; [trigger] records why it was raised (first reason wins) and
   closes the frontier. [limits] is this worker's {!Monitor}, checked before
   every replay. *)
let worker ~config ~scn ~frontier ~reserved ~stopped ~trigger ~limits () =
  let budget = config.Config.max_executions in
  let snapshots = if config.Config.snapshot then Some (Snapshot.create_cache ()) else None in
  let bugs = Hashtbl.create 16 in
  let multi_rf : (string * Pmem.Addr.t, Ctx.multi_rf) Hashtbl.t = Hashtbl.create 16 in
  let perf : (Ctx.perf_report, unit) Hashtbl.t = Hashtbl.create 16 in
  let findings : (Analysis.Report.finding, unit) Hashtbl.t = Hashtbl.create 16 in
  let executions = ref 0 in
  let failure_points = ref 0 in
  let stores = ref 0 in
  let flushes = ref 0 in
  let snapshot_hits = ref 0 in
  let snapshot_misses = ref 0 in
  let sheds = ref 0 in
  let remainder = ref [] in
  (* One searcher for the worker's lifetime: [restart] keeps the cells a new
     task shares with the previous one, so the snapshots on them keep
     hitting. *)
  let choice = Choice.create () in
  let record_bug ctx kind location =
    let b =
      {
        Bug.kind;
        location;
        exec_depth = Ctx.failures ctx;
        trace = Ctx.trace_events ctx;
        dropped = Ctx.trace_dropped ctx;
      }
    in
    keep_min bugs (Bug.report_key b) b
  in
  let harvest ctx =
    List.iter
      (fun (r : Ctx.multi_rf) -> keep_min multi_rf (r.load_label, r.load_addr) r)
      (Ctx.multi_rf_reports ctx);
    List.iter (fun r -> Hashtbl.replace perf r ()) (Ctx.perf_reports ctx);
    if config.Config.analyze then
      List.iter (fun f -> Hashtbl.replace findings f ()) (Ctx.analysis_findings ctx)
  in
  let explore prefix =
    Choice.restart choice prefix;
    (* Only the root task starts with the all-defaults replay — the original
       failure-free execution whose counts Fig. 14 reports. *)
    let original = ref (Choice.prefix_depth prefix = 0) in
    let continue = ref true in
    while !continue do
      (if not (Atomic.get stopped) then
         match Monitor.stop_reason limits ~now:Unix.gettimeofday with
         | Some r -> trigger (Limit r)
         | None -> ());
      if Monitor.shed limits ~now:Unix.gettimeofday ~heap:Monitor.heap_bytes then begin
        (match snapshots with Some cache -> Snapshot.clear_cache cache | None -> ());
        incr sheds
      end;
      if Atomic.get stopped then begin
        (* The choice stack sits where the next replay would start, so its
           remainder is exactly this task's unexplored subtree. *)
        remainder := Choice.remainder choice :: !remainder;
        continue := false
      end
      else if not (reserve_slot reserved ~budget) then begin
        trigger Capped;
        remainder := Choice.remainder choice :: !remainder;
        continue := false
      end
      else begin
        Choice.begin_replay choice;
        let resume =
          match snapshots with
          | None -> None
          | Some cache -> (
              match Snapshot.find cache choice with
              | Some _ as s ->
                  incr snapshot_hits;
                  s
              | None ->
                  incr snapshot_misses;
                  None)
        in
        let ctx = Ctx.create ?snapshots ?resume ~config ~choice () in
        (try replay_once scn ctx with
        | Ctx.Power_failure -> assert false
        | Choice.Divergence _ as e -> raise e
        | Bug.Found (kind, location) -> record_bug ctx kind location
        | Stack_overflow -> record_bug ctx (Bug.Step_limit { resource = "stack" }) (Ctx.last_label ctx)
        | Out_of_memory -> record_bug ctx (Bug.Step_limit { resource = "memory" }) (Ctx.last_label ctx)
        | e ->
            record_bug ctx
              (Bug.Program_exception (Bug.normalize_message (Printexc.to_string e)))
              (Ctx.last_label ctx));
        incr executions;
        if !original then begin
          failure_points := Ctx.fp_count ctx;
          (match List.rev (Exec.Exec_stack.to_list (Ctx.exec_stack ctx)) with
          | _ :: first :: _ ->
              stores := Exec.Exec_record.store_count first;
              flushes := Exec.Exec_record.flush_count first
          | [ _ ] | [] -> ());
          original := false
        end;
        harvest ctx;
        if config.Config.stop_at_first_bug && Hashtbl.length bugs > 0 then begin
          trigger First_bug;
          (* The bug-finding leaf is explored; what remains is everything
             past the next DFS increment. *)
          if Choice.advance choice then remainder := Choice.remainder choice :: !remainder;
          continue := false
        end
        else if not (Choice.advance choice) then continue := false
        else if Frontier.needs_work frontier then
          (* An idle peer: donate the shallowest unexplored sibling range —
             the largest subtree this worker can give away. *)
          Option.iter (Frontier.push frontier) (Choice.split choice)
      end
    done
  in
  let rec drain () =
    match Frontier.pop frontier with
    | None -> ()
    | Some prefix ->
        explore prefix;
        drain ()
  in
  drain ();
  let bugs, multi_rf, perf, findings =
    sorted_reports ~bug_tbl:bugs ~multi_rf_tbl:multi_rf ~perf_tbl:perf ~findings_tbl:findings
  in
  let stats =
    {
      Stats.zero with
      Stats.executions = !executions;
      rf_decisions = Choice.created choice Choice.Read_from;
      failure_points = !failure_points;
      stores = !stores;
      flushes = !flushes;
      snapshot_hits = !snapshot_hits;
      snapshot_misses = !snapshot_misses;
      sheds = !sheds;
    }
  in
  ({ bugs; stats; multi_rf; perf; findings; frontier = [] }, !remainder)

(* Combine the outcomes of disjoint subtree explorations — a round's
   workers, a resumed checkpoint plus its continuation, the fleet's shard
   results — with one dedup discipline: per-key least representative for
   bugs and multi-rf, set union for perf and findings, [Stats.merge] for the
   counters. [exhausted]/[interrupted] are recomputed from the caller's
   knowledge of completion (constituent outcomes of capped or preempted
   shards legitimately carry partial flags). The constituents' frontiers are
   dropped: what is left unexplored is the caller's to say. *)
let merge_outcomes ?(config = Config.default) ~completed ~interrupted outcomes =
  let bug_tbl = Hashtbl.create 16 in
  let multi_rf_tbl = Hashtbl.create 16 in
  let perf_tbl = Hashtbl.create 16 in
  let findings_tbl = Hashtbl.create 16 in
  let stats_acc = ref Stats.zero in
  List.iter
    (fun o ->
      List.iter (fun b -> keep_min bug_tbl (Bug.report_key b) b) o.bugs;
      List.iter
        (fun (m : Ctx.multi_rf) -> keep_min multi_rf_tbl (m.load_label, m.load_addr) m)
        o.multi_rf;
      List.iter (fun p -> Hashtbl.replace perf_tbl p ()) o.perf;
      List.iter (fun f -> Hashtbl.replace findings_tbl f ()) o.findings;
      stats_acc := Stats.merge !stats_acc o.stats)
    outcomes;
  let bugs, multi_rf, perf, findings =
    sorted_reports ~bug_tbl ~multi_rf_tbl ~perf_tbl ~findings_tbl
  in
  let stats =
    {
      !stats_acc with
      Stats.multi_rf_loads = List.length multi_rf;
      findings = List.length findings;
      exhausted = completed && not (config.Config.stop_at_first_bug && bugs <> []);
      interrupted;
    }
  in
  { bugs; stats; multi_rf; perf; findings; frontier = [] }

let run ?(config = Config.default) ?resume ?checkpoint scn =
  let jobs = max 1 config.Config.jobs in
  let t0 = Unix.gettimeofday () in
  (* What earlier sessions explored, and the subtrees left to this one. Its
     counters carry over — in particular [executions] restarts the execution
     budget where it stood. *)
  let explored, tasks =
    match resume with
    | None -> (empty, [ Choice.root ])
    | Some cp ->
        Checkpoint.validate cp ~workload:scn.name ~config;
        (of_checkpoint cp, Checkpoint.frontier_prefixes cp)
  in
  let prior_wall = explored.stats.Stats.wall_time in
  let reserved = Atomic.make explored.stats.Stats.executions in
  (* One round: explore the given tasks until completion or the first stop
     trigger. Returns the stop reason (None = ran to completion), the
     workers' outcomes and the unexplored remainder. *)
  let round tasks =
    let frontier = Frontier.create ~workers:jobs () in
    List.iter (Frontier.push frontier) tasks;
    let stopped = Atomic.make false in
    let reason : stop_reason option Atomic.t = Atomic.make None in
    let trigger r =
      if Atomic.compare_and_set reason None (Some r) then begin
        Atomic.set stopped true;
        Frontier.close frontier
      end
    in
    let wall_deadline = Option.map (fun b -> t0 +. b) config.Config.wall_budget in
    let tick_deadline =
      Option.map (fun _ -> Unix.gettimeofday () +. config.Config.checkpoint_every) checkpoint
    in
    (* A worker that dies (Choice.Divergence — a broken harness) must not
       leave its peers blocked on the frontier forever: close it, join
       everyone, then re-raise. *)
    let guarded () =
      let limits =
        Monitor.create ~interrupt:interrupt_flag ?wall_deadline ?tick_deadline
          ?mem_budget:config.Config.mem_budget ()
      in
      match worker ~config ~scn ~frontier ~reserved ~stopped ~trigger ~limits () with
      | r -> Ok r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set stopped true;
          Frontier.close frontier;
          Error (e, bt)
    in
    let results =
      if jobs = 1 then [ guarded () ]
      else begin
        let spawned = List.init (jobs - 1) (fun _ -> Domain.spawn guarded) in
        let mine = guarded () in
        mine :: List.map Domain.join spawned
      end
    in
    let results =
      List.map
        (function Ok r -> r | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
        results
    in
    ( Atomic.get reason,
      List.map fst results,
      List.concat_map snd results @ Frontier.drain_remaining frontier )
  in
  (* A [Tick] stop writes a checkpoint and loops into another round; anything
     else ends the run. Every round's outcome — and so every checkpoint —
     folds in everything explored before it, so the reports are
     byte-identical for any jobs value, any partition of the tree across
     rounds, and any interrupt/resume history. *)
  let rec rounds explored tasks =
    let reason, outcomes, remainder = round tasks in
    let completed, interrupted =
      match (reason, remainder) with
      (* Ran dry (a Tick that found nothing left is completion too). *)
      | None, _ | Some (Limit Tick), [] -> (true, false)
      | Some (Limit _), _ -> (false, true)
      (* Cut short, but not "interrupted": resuming a capped checkpoint just
         caps again (the budget travels in the stats). *)
      | Some (Capped | First_bug), _ -> (false, false)
    in
    let o = merge_outcomes ~config ~completed ~interrupted (explored :: outcomes) in
    let o =
      {
        o with
        stats = { o.stats with Stats.wall_time = prior_wall +. (Unix.gettimeofday () -. t0) };
        frontier = List.map Choice.encode_prefix remainder;
      }
    in
    Option.iter (fun path -> Checkpoint.save (to_checkpoint ~config scn o) path) checkpoint;
    match (reason, remainder) with
    | Some (Limit Tick), _ :: _ -> rounds o remainder
    | _ -> o
  in
  rounds explored tasks

let found_bug o = o.bugs <> []

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>%a@," Stats.pp o.stats;
  (if o.bugs = [] then Format.fprintf ppf "no bugs found"
   else begin
     Format.fprintf ppf "%d bug(s):" (List.length o.bugs);
     List.iter (fun b -> Format.fprintf ppf "@,  %s" (Bug.symptom b)) o.bugs
   end);
  if o.perf <> [] then begin
    Format.fprintf ppf "@,%d performance issue(s):" (List.length o.perf);
    List.iter
      (fun (r : Ctx.perf_report) ->
        Format.fprintf ppf "@,  %s at %s"
          (match r.Ctx.perf_kind with
          | Ctx.Redundant_flush -> "redundant flush"
          | Ctx.Redundant_fence -> "redundant fence")
          r.Ctx.perf_label)
      o.perf
  end;
  if o.findings <> [] then begin
    Format.fprintf ppf "@,%d analysis finding(s):" (List.length o.findings);
    List.iter
      (fun f -> Format.fprintf ppf "@,  %a" Analysis.Report.pp_finding f)
      o.findings
  end;
  Format.fprintf ppf "@]"

let comparable_outcome o = { o with stats = Stats.comparable o.stats }
let pp_report ppf o = pp_outcome ppf (comparable_outcome o)
