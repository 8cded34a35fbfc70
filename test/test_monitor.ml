(* Exploration limits: their edge cases, driven through [Monitor]'s checks
   with a given clock (no sleeping); each limit taking effect at the first
   replay boundary or [Ctx] operation past it; and the explorer-level races
   of interrupts and sheds: an interrupt landing in the middle of a
   checkpoint save, a memory-budget shed racing parallel frontier splits,
   and double-interrupt escalation. *)
open Jaaru

let report_text (o : Explorer.outcome) = Format.asprintf "%a" Explorer.pp_report o

let with_temp_file f =
  let path = Filename.temp_file "jaaru_monitor" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let deep_case () =
  let c = List.hd (Pmdk.Workloads.fig12_cases ()) in
  ( c.Pmdk.Workloads.scenario,
    { c.Pmdk.Workloads.config with Config.max_failures = 2; stop_at_first_bug = false } )

let limits ?wall_deadline ?tick_deadline ?mem_budget ?(interrupt = Atomic.make false) () =
  Monitor.create ~interrupt ?wall_deadline ?tick_deadline ?mem_budget ()

let at instant () = instant
let no_clock () = Alcotest.fail "the clock was read"

let reason =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with
        | Monitor.Interrupt -> "Interrupt"
        | Monitor.Wall_budget -> "Wall_budget"
        | Monitor.Tick -> "Tick"))
    ( = )

let stop = Alcotest.option reason

let spin seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ()
  done

(* --- limits, one deterministic check at a time ------------------------------ *)

let test_wall_deadline_fires () =
  let m = limits ~wall_deadline:100.0 () in
  Alcotest.check stop "before the deadline: silent" None (Monitor.stop_reason m ~now:(at 99.9));
  Alcotest.check stop "at the deadline: Wall_budget" (Some Monitor.Wall_budget)
    (Monitor.stop_reason m ~now:(at 100.0));
  Alcotest.check stop "and every check after it" (Some Monitor.Wall_budget)
    (Monitor.stop_reason m ~now:(at 1000.0))

let test_tick_fires () =
  let m = limits ~tick_deadline:10.0 () in
  Alcotest.check stop "before the tick: silent" None (Monitor.stop_reason m ~now:(at 9.0));
  Alcotest.check stop "tick deadline fires Tick" (Some Monitor.Tick)
    (Monitor.stop_reason m ~now:(at 10.5))

let test_interrupt_wins () =
  (* A pending interrupt outranks expired budgets, and the run budget
     outranks the checkpoint tick. *)
  let m = limits ~interrupt:(Atomic.make true) ~wall_deadline:1.0 ~tick_deadline:1.0 () in
  Alcotest.check stop "interrupt outranks expired budgets" (Some Monitor.Interrupt)
    (Monitor.stop_reason m ~now:(at 50.0));
  let m = limits ~wall_deadline:1.0 ~tick_deadline:1.0 () in
  Alcotest.check stop "run budget outranks the tick" (Some Monitor.Wall_budget)
    (Monitor.stop_reason m ~now:(at 50.0))

(* The deadline belongs to one context: a later execution starts with its
   own full deadline, and a run without one never times out. *)
let test_step_deadline_cancels_current_exec_only () =
  let config = { Config.default with Config.step_deadline = Some 0.2 } in
  let fresh config =
    let choice = Choice.create () in
    Choice.begin_replay choice;
    Ctx.create ~config ~choice ()
  in
  let overdue = fresh config in
  let untimed = fresh { config with Config.step_deadline = None } in
  spin 0.21;
  let young = fresh config in
  (match Ctx.progress overdue () with
  | () -> Alcotest.fail "overdue execution not cancelled"
  | exception Bug.Found (Bug.Execution_timeout { seconds }, _) ->
      Alcotest.(check (float 1e-9)) "reports the configured deadline" 0.2 seconds);
  Ctx.progress young ();
  Ctx.progress untimed ()

(* Heap samples come from a counter here, so the throttle and the 90%
   re-arm are visible. *)
let test_mem_budget_shed_hysteresis () =
  let heap = ref 2000 and samples = ref 0 in
  let sample () =
    incr samples;
    !heap
  in
  let m = limits ~mem_budget:1000 () in
  let shed instant = Monitor.shed m ~now:(at instant) ~heap:sample in
  Alcotest.(check bool) "over budget at the first check: shed" true (shed 1.0);
  Alcotest.(check bool) "within 50 ms: no sample" false (shed 1.01);
  Alcotest.(check int) "one sample so far" 1 !samples;
  Alcotest.(check bool) "still over: the trip stays disarmed" false (shed 1.1);
  heap := 950;
  Alcotest.(check bool) "above 90% of the budget: still disarmed" false (shed 1.2);
  heap := 2000;
  Alcotest.(check bool) "so over again is not a new trip" false (shed 1.3);
  heap := 800;
  Alcotest.(check bool) "below 90% re-arms" false (shed 1.4);
  heap := 2000;
  Alcotest.(check bool) "the next trip sheds again" true (shed 1.5);
  Alcotest.(check int) "one sample per check past the throttle" 6 !samples;
  let m = limits ~mem_budget:max_int () in
  Alcotest.(check bool) "generous budget never sheds" false
    (Monitor.shed m ~now:Unix.gettimeofday ~heap:Monitor.heap_bytes);
  Alcotest.(check bool) "no budget: nothing is read" false
    (Monitor.shed (limits ()) ~now:no_clock ~heap:(fun () -> Alcotest.fail "heap sampled"))

(* The worker's look at the limits against the real clock. *)
let test_check_deadlines () =
  let m = limits ~wall_deadline:(Unix.gettimeofday () +. 3600.) () in
  Alcotest.check stop "future deadline: silent" None
    (Monitor.stop_reason m ~now:Unix.gettimeofday);
  let m = limits ~tick_deadline:0. () in
  Alcotest.check stop "past tick fires" (Some Monitor.Tick)
    (Monitor.stop_reason m ~now:Unix.gettimeofday);
  let m = limits ~mem_budget:1 () in
  Alcotest.check stop "no run deadline: no clock read, nothing fires" None
    (Monitor.stop_reason m ~now:no_clock)

(* Every replay of this scenario busy-waits 2 ms without releasing the
   runtime lock, and its [points] failure points make [points + 1]
   replays. *)
let spin_scenario ~points =
  let base = Config.default.Config.region_base in
  let pre ctx =
    spin 0.002;
    for i = 0 to points - 1 do
      Ctx.store64 ctx (base + (64 * i)) i;
      Ctx.clflush ctx (base + (64 * i)) 8
    done
  in
  Explorer.scenario ~name:"spin" ~pre ~post:(fun _ -> spin 0.002)

(* A 1 ms budget has passed when the first of 31 replays ends, so each
   worker stops at its next replay boundary; a budget seen only by a
   background thread would let replays run until the runtime's ~50 ms
   tick. *)
let test_budget_stops_at_replay_boundary () =
  let scn = spin_scenario ~points:30 in
  List.iter
    (fun jobs ->
      let config = { Config.default with Config.jobs; wall_budget = Some 0.001 } in
      let o = Explorer.run ~config scn in
      let label = Printf.sprintf "jobs=%d" jobs in
      Alcotest.(check bool) (label ^ ": interrupted") true o.Explorer.stats.Stats.interrupted;
      let executions = o.Explorer.stats.Stats.executions in
      if executions > 2 * jobs then
        Alcotest.failf "%s: %d replays ran under a 1 ms budget" label executions)
    (Test_env.jobs_matrix ~default:[ 1; 2 ])

(* Each operation of this replay comes 2 ms after the previous one, without
   releasing the runtime lock. Under a 1 ms step deadline the first
   operation is already late, so the execution times out there; a deadline
   enforced by a background thread would let operations run until the
   runtime's ~50 ms tick. *)
let test_step_deadline_at_operation () =
  let base = Config.default.Config.region_base in
  let ops = ref 0 in
  let pre ctx =
    ops := 0;
    for i = 0 to 99 do
      spin 0.002;
      incr ops;
      Ctx.store64 ctx (base + (8 * i)) i
    done
  in
  let scn = Explorer.scenario ~name:"slow-ops" ~pre ~post:ignore in
  let config = { Config.default with Config.step_deadline = Some 0.001 } in
  let o = Explorer.run ~config scn in
  (match o.Explorer.bugs with
  | [ { Bug.kind = Bug.Execution_timeout _; _ } ] -> ()
  | bs -> Alcotest.failf "expected one Execution_timeout, got %d bug(s)" (List.length bs));
  if !ops > 2 then Alcotest.failf "%d operations ran under a 1 ms step deadline" !ops

(* A 1-byte budget is over at the first sample, which a worker takes at its
   first replay boundary. The run's few replays end well before the
   runtime's ~50 ms tick, when a background sampler would first run. *)
let test_mem_budget_sheds_at_replay_boundary () =
  let scn = spin_scenario ~points:3 in
  let config = { Config.default with Config.mem_budget = Some 1 } in
  let o = Explorer.run ~config scn in
  Alcotest.(check int) "one shed, at the first replay boundary" 1 o.Explorer.stats.Stats.sheds

(* --- explorer-level races --------------------------------------------------- *)

(* An interrupt that lands in the middle of a checkpoint save (a signal
   arriving while [save] is between its header and payload writes) must not
   corrupt the file: the save completes, the run stops interrupted, and
   resuming the checkpoint finishes to the exact uninterrupted report. *)
let test_interrupt_during_checkpoint_save () =
  let scn, config = deep_case () in
  let expected = report_text (Explorer.run ~config scn) in
  with_temp_file (fun path ->
      Explorer.clear_interrupt ();
      let config = { config with Config.checkpoint_every = 0.01 } in
      let saves = ref 0 in
      Checkpoint.set_write_fault
        (Some
           (fun () ->
             incr saves;
             if !saves = 1 then Explorer.request_interrupt ()));
      let o =
        Fun.protect
          ~finally:(fun () ->
            Checkpoint.set_write_fault None;
            Explorer.clear_interrupt ())
          (fun () -> Explorer.run ~config ~checkpoint:path scn)
      in
      Alcotest.(check bool) "a mid-save fault hook actually ran" true (!saves >= 1);
      if o.Explorer.stats.Stats.interrupted then begin
        let cp = Checkpoint.load path in
        Checkpoint.validate cp ~workload:scn.Explorer.name ~config;
        let final = Explorer.run ~config ~resume:cp scn in
        Alcotest.(check string) "interrupt during save + resume = baseline" expected
          (report_text final)
      end
      else
        (* The run finished before the periodic save could fire — then the
           report must already be the baseline. *)
        Alcotest.(check string) "uninterrupted report = baseline" expected (report_text o))

(* A memory-budget shed arriving while parallel workers are splitting the
   frontier must not change the verdict: caches are dropped, work is not. *)
let test_shed_racing_parallel_split () =
  let scn, config = deep_case () in
  let expected = report_text (Explorer.run ~config scn) in
  let squeezed =
    { config with Config.jobs = 4; snapshot = true; mem_budget = Some 1 }
  in
  let o = Explorer.run ~config:squeezed scn in
  Alcotest.(check string) "shed under jobs=4 = baseline report" expected (report_text o)

let test_double_interrupt_counting () =
  Explorer.clear_interrupt ();
  Fun.protect ~finally:Explorer.clear_interrupt (fun () ->
      Alcotest.(check int) "clean slate" 0 (Explorer.interrupts_requested ());
      Explorer.request_interrupt ();
      Alcotest.(check int) "first request counted" 1 (Explorer.interrupts_requested ());
      Explorer.request_interrupt ();
      Alcotest.(check int) "second request counted (CLI escalates here)" 2
        (Explorer.interrupts_requested ());
      Explorer.clear_interrupt ();
      Alcotest.(check int) "clear resets the count" 0 (Explorer.interrupts_requested ()))

let () =
  Alcotest.run "monitor"
    [
      ( "deadlines",
        [
          Alcotest.test_case "wall deadline fires at its instant" `Quick test_wall_deadline_fires;
          Alcotest.test_case "tick deadline fires" `Quick test_tick_fires;
          Alcotest.test_case "interrupt outranks budgets" `Quick test_interrupt_wins;
          Alcotest.test_case "step deadline cancels current exec only" `Quick
            test_step_deadline_cancels_current_exec_only;
          Alcotest.test_case "mem budget shed hysteresis" `Quick test_mem_budget_shed_hysteresis;
          Alcotest.test_case "workers check deadlines" `Quick test_check_deadlines;
          Alcotest.test_case "1 ms budget stops at a replay boundary" `Quick
            test_budget_stops_at_replay_boundary;
          Alcotest.test_case "1 ms step deadline stops at an operation" `Quick
            test_step_deadline_at_operation;
          Alcotest.test_case "1-byte budget sheds at a replay boundary" `Quick
            test_mem_budget_sheds_at_replay_boundary;
        ] );
      ( "races",
        [
          Alcotest.test_case "interrupt during checkpoint save" `Slow
            test_interrupt_during_checkpoint_save;
          Alcotest.test_case "shed racing a parallel split" `Slow test_shed_racing_parallel_split;
          Alcotest.test_case "double interrupt counting" `Quick test_double_interrupt_counting;
        ] );
    ]
