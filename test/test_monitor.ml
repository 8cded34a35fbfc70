(* Watchdog edge cases, driven deterministically through [Monitor.poll ~now]
   (no sleeping), plus the explorer-level races the fleet PR cares about:
   an interrupt landing in the middle of a checkpoint save, a memory-budget
   shed racing parallel frontier splits, and double-interrupt escalation. *)
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

let make_monitor ?wall_deadline ?tick_deadline ?step_deadline ?mem_budget ?(workers = 1)
    ?(interrupt = Atomic.make false) () =
  let fired = ref [] in
  let m =
    Monitor.create ~workers ~interrupt ?wall_deadline ?tick_deadline ?step_deadline ?mem_budget
      ~on_stop:(fun r -> fired := r :: !fired)
      ()
  in
  (m, fired)

(* --- deadline duties, one deterministic poll at a time ---------------------- *)

let test_wall_deadline_fires_once () =
  let m, fired = make_monitor ~wall_deadline:100.0 () in
  Monitor.poll m ~now:99.9;
  Alcotest.(check int) "before the deadline: silent" 0 (List.length !fired);
  Monitor.poll m ~now:100.0;
  Alcotest.(check bool) "at the deadline: Wall_budget" true (!fired = [ Monitor.Wall_budget ]);
  Monitor.poll m ~now:500.0;
  Monitor.poll m ~now:1000.0;
  Alcotest.(check int) "on_stop is once-only" 1 (List.length !fired)

let test_tick_fires () =
  let m, fired = make_monitor ~tick_deadline:10.0 () in
  Monitor.poll m ~now:9.0;
  Monitor.poll m ~now:10.5;
  Alcotest.(check bool) "tick deadline fires Tick" true (!fired = [ Monitor.Tick ])

let test_interrupt_wins () =
  (* Interrupt is sampled first: when a poll observes both a pending
     interrupt and an expired budget, the stop reason is the interrupt. *)
  let interrupt = Atomic.make true in
  let m, fired = make_monitor ~interrupt ~wall_deadline:1.0 ~tick_deadline:1.0 () in
  Monitor.poll m ~now:50.0;
  Alcotest.(check bool) "interrupt outranks expired budgets" true (!fired = [ Monitor.Interrupt ])

let test_step_deadline_cancels_current_exec_only () =
  let m, fired = make_monitor ~step_deadline:0.5 ~workers:2 () in
  let t0 = Unix.gettimeofday () in
  Monitor.exec_started m 0;
  Monitor.poll m ~now:(t0 +. 0.1);
  Alcotest.(check bool) "young execution not cancelled" false
    (Atomic.get (Monitor.cancel_flag m 0));
  Monitor.poll m ~now:(t0 +. 10.0);
  Alcotest.(check bool) "overdue execution cancelled" true (Atomic.get (Monitor.cancel_flag m 0));
  Alcotest.(check bool) "idle worker untouched" false (Atomic.get (Monitor.cancel_flag m 1));
  Alcotest.(check int) "step deadline is not a stop" 0 (List.length !fired);
  (* The flag from a dying execution must not poison the next one. *)
  Monitor.exec_started m 0;
  Alcotest.(check bool) "next execution starts clean" false
    (Atomic.get (Monitor.cancel_flag m 0));
  Monitor.exec_finished m 0;
  Monitor.poll m ~now:(t0 +. 100.0);
  Alcotest.(check bool) "finished execution has no deadline" false
    (Atomic.get (Monitor.cancel_flag m 0))

let test_mem_budget_shed_hysteresis () =
  (* A 1-byte budget is always exceeded: the trip must set every worker's
     shed flag once, then disarm (the heap can never fall back under 90%
     of a byte), so repeated polls never re-shed. *)
  let m, _ = make_monitor ~mem_budget:1 ~workers:3 () in
  Monitor.poll m ~now:1.0;
  for i = 0 to 2 do
    Alcotest.(check bool) (Printf.sprintf "worker %d shed once" i) true (Monitor.take_shed m i);
    Alcotest.(check bool) (Printf.sprintf "worker %d shed is consumed" i) false
      (Monitor.take_shed m i)
  done;
  Monitor.poll m ~now:2.0;
  Monitor.poll m ~now:3.0;
  Alcotest.(check bool) "tripped budget stays disarmed" false (Monitor.take_shed m 0);
  let m, _ = make_monitor ~mem_budget:max_int ~workers:1 () in
  Monitor.poll m ~now:1.0;
  Alcotest.(check bool) "generous budget never sheds" false (Monitor.take_shed m 0)

(* [check_deadlines] is the worker's own look at the two deadlines. *)
let test_check_deadlines () =
  let m, fired = make_monitor ~wall_deadline:(Unix.gettimeofday () +. 3600.) () in
  Monitor.check_deadlines m;
  Alcotest.(check int) "future deadline: silent" 0 (List.length !fired);
  let m, fired = make_monitor ~tick_deadline:0. () in
  Monitor.check_deadlines m;
  Monitor.check_deadlines m;
  Alcotest.(check bool) "past tick fires once" true (!fired = [ Monitor.Tick ]);
  let m, fired = make_monitor ~step_deadline:0. ~mem_budget:1 () in
  Monitor.check_deadlines m;
  Alcotest.(check int) "no run deadline: nothing fires" 0 (List.length !fired);
  Alcotest.(check bool) "and nothing is shed" false (Monitor.take_shed m 0)

(* Every replay of this scenario busy-waits 2 ms without releasing the
   runtime lock, and its 30 failure points make 31 replays. A 1 ms budget
   has passed when the first replay ends, so each worker stops at its next
   replay boundary; a budget seen only by the monitor thread would let
   replays run until the runtime's ~50 ms tick. *)
let test_budget_stops_at_replay_boundary () =
  let spin () =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.002 do
      ()
    done
  in
  let base = Config.default.Config.region_base in
  let pre ctx =
    spin ();
    for i = 0 to 29 do
      Ctx.store64 ctx (base + (64 * i)) i;
      Ctx.clflush ctx (base + (64 * i)) 8
    done
  in
  let post _ = spin () in
  let scn = Explorer.scenario ~name:"spin" ~pre ~post in
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

(* --- explorer-level races --------------------------------------------------- *)

(* An interrupt that lands in the middle of a checkpoint save (the watchdog
   firing while [save] is between its header and payload writes) must not
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
          Alcotest.test_case "wall deadline fires once" `Quick test_wall_deadline_fires_once;
          Alcotest.test_case "tick deadline fires" `Quick test_tick_fires;
          Alcotest.test_case "interrupt outranks budgets" `Quick test_interrupt_wins;
          Alcotest.test_case "step deadline cancels current exec only" `Quick
            test_step_deadline_cancels_current_exec_only;
          Alcotest.test_case "mem budget shed hysteresis" `Quick test_mem_budget_shed_hysteresis;
          Alcotest.test_case "workers check deadlines" `Quick test_check_deadlines;
          Alcotest.test_case "1 ms budget stops at a replay boundary" `Quick
            test_budget_stops_at_replay_boundary;
        ] );
      ( "races",
        [
          Alcotest.test_case "interrupt during checkpoint save" `Slow
            test_interrupt_during_checkpoint_save;
          Alcotest.test_case "shed racing a parallel split" `Slow test_shed_racing_parallel_split;
          Alcotest.test_case "double interrupt counting" `Quick test_double_interrupt_counting;
        ] );
    ]
