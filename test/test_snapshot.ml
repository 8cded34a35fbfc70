(* The failure-point snapshot/resume layer: outcomes must be byte-identical
   with snapshots on or off for every --jobs value, while the pre-failure
   program actually runs only once per decision path — plus regression tests
   for the replay-path fixes that ride along (clwb event kind, exact
   execution-budget accounting, parallel-section join/drain scope). *)
open Jaaru

let base = 0x1000

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- Choice: snapshot points ------------------------------------------------ *)

let status =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with `On_path -> "On_path" | `Ahead -> "Ahead" | `Dead -> "Dead"))
    ( = )

let test_choice_points () =
  let c = Choice.create () in
  Choice.begin_replay c;
  let root = Choice.point c in
  ignore (Choice.choose c Choice.Failure_point 2);
  (* A failure point's snapshot stands for its take-the-crash alternative. *)
  let crash = Choice.point ~alt:1 c in
  ignore (Choice.choose c Choice.Read_from 3);
  let here = Choice.point c in
  Alcotest.(check int) "root depth" 0 (Choice.point_depth root);
  Alcotest.(check int) "crash depth" 1 (Choice.point_depth crash);
  Alcotest.(check int) "depth counts consumed decisions" 2 (Choice.point_depth here);
  Alcotest.(check bool) "same point" true (Choice.same_point here (Choice.point c));
  Alcotest.(check bool) "other alternative" false (Choice.same_point here (Choice.point ~alt:1 c));
  (* Advance flips the deepest cell: the next replay reads [RF = 1]. *)
  Alcotest.(check bool) "advance has work" true (Choice.advance c);
  Choice.begin_replay c;
  Alcotest.check status "root is on every path" `On_path (Choice.status c root);
  Alcotest.check status "crash alternative not taken yet" `Ahead (Choice.status c crash);
  Alcotest.check status "flipped past the point" `Dead (Choice.status c here);
  ignore (Choice.choose c Choice.Failure_point 2);
  ignore (Choice.choose c Choice.Read_from 3);
  let last = Choice.point ~alt:2 c in
  Alcotest.check status "cell not flipped that far yet" `Ahead (Choice.status c last);
  ignore (Choice.advance c);
  Choice.begin_replay c;
  Alcotest.check status "flipped onto the point" `On_path (Choice.status c last);
  (* Exhausting the read-from cell strips it and takes the crash. *)
  ignore (Choice.choose c Choice.Failure_point 2);
  ignore (Choice.choose c Choice.Read_from 3);
  ignore (Choice.advance c);
  Choice.begin_replay c;
  Alcotest.check status "crash alternative reached" `On_path (Choice.status c crash);
  Alcotest.check status "stripped cell" `Dead (Choice.status c last);
  (* A fresh cell at the same depth with the same shape is another record. *)
  ignore (Choice.choose c Choice.Failure_point 2);
  ignore (Choice.choose c Choice.Read_from 3);
  Choice.begin_replay c;
  Alcotest.check status "recreated cell is not the point's" `Dead (Choice.status c last)

let test_choice_fast_forward () =
  let c = Choice.create () in
  Choice.begin_replay c;
  ignore (Choice.choose c Choice.Failure_point 2);
  ignore (Choice.choose c Choice.Read_from 3);
  ignore (Choice.advance c);
  Choice.begin_replay c;
  Choice.fast_forward c 1;
  Alcotest.(check int) "cursor moved" 1 (Choice.depth c);
  (* The next decision is the recorded (flipped) Read_from cell. *)
  Alcotest.(check int) "replays the recorded cell" 1 (Choice.choose c Choice.Read_from 3);
  Alcotest.(check bool)
    "cannot rewind" true
    (match Choice.fast_forward c 0 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- outcome equivalence: snapshot on/off x jobs --------------------------- *)

let outcome_text (o : Explorer.outcome) =
  let o = { o with Explorer.stats = Stats.comparable o.Explorer.stats } in
  Format.asprintf "%a" Explorer.pp_outcome o

let check_snapshot_equivalence name scenario config =
  let config = { config with Config.stop_at_first_bug = false } in
  let reference =
    Explorer.run ~config:{ config with Config.snapshot = false; jobs = 1 } scenario
  in
  let ref_text = outcome_text reference in
  Alcotest.(check bool)
    (name ^ ": reference explored something") true
    (reference.Explorer.stats.Stats.executions > 0);
  List.iter
    (fun jobs ->
      List.iter
        (fun snapshot ->
          let o =
            Explorer.run ~config:{ config with Config.snapshot = snapshot; jobs } scenario
          in
          let cell = Printf.sprintf "%s: jobs=%d snapshot=%b" name jobs snapshot in
          Alcotest.(check string) (cell ^ " byte-identical") ref_text (outcome_text o);
          (* [pp_outcome] prints symptoms only: compare the full bug records,
             restored trace rings and their dropped counts included. *)
          Alcotest.(check bool)
            (cell ^ " bug records and traces equal")
            true
            (o.Explorer.bugs = reference.Explorer.bugs);
          (* One searcher and one cache: only the original replay runs in
             full, every later one resumes from a snapshot. Outcomes stay
             byte-identical when hits are lost, so this pins the hit rate. *)
          if jobs = 1 && snapshot then
            Alcotest.(check int) (cell ^ " snapshot misses") 1
              o.Explorer.stats.Stats.snapshot_misses)
        [ true; false ])
    (List.sort_uniq compare (1 :: Test_env.jobs_matrix ~default:[ 1; 2; 4 ]))

let flush_loop_scenario () =
  Explorer.scenario ~name:"flush-loop"
    ~pre:(fun ctx ->
      for i = 0 to 3 do
        Ctx.store64 ctx ~label:"w" (base + (64 * i)) (i + 1);
        Ctx.clflush ctx ~label:"f" (base + (64 * i)) 8
      done)
    ~post:(fun ctx ->
      for i = 0 to 3 do
        ignore (Ctx.load64 ctx ~label:"r" (base + (64 * i)))
      done)

let test_equivalence_eager () =
  check_snapshot_equivalence "eager" (flush_loop_scenario ()) Config.default

let test_equivalence_buffered () =
  check_snapshot_equivalence "buffered" (flush_loop_scenario ())
    { Config.default with Config.evict_policy = Config.Buffered }

let test_equivalence_multi_failure () =
  check_snapshot_equivalence "multi-failure" (flush_loop_scenario ())
    { Config.default with Config.max_failures = 2 }

let test_equivalence_explicit_crash () =
  (* [Ctx.crash] with a decision-free pre: the snapshot sits at the root
     and every replay after the first resumes straight at the crash. *)
  let scn =
    Explorer.scenario ~name:"explicit-crash"
      ~pre:(fun ctx ->
        Ctx.store64 ctx ~label:"a" base 1;
        Ctx.store64 ctx ~label:"b" (base + 8) 2;
        Ctx.crash ctx)
      ~post:(fun ctx ->
        ignore (Ctx.load64 ctx ~label:"ra" base);
        ignore (Ctx.load64 ctx ~label:"rb" (base + 8)))
  in
  check_snapshot_equivalence "explicit-crash eager" scn
    { Config.default with Config.max_failures = 0 };
  (* Buffered: the drain prefix at the crash stays a live decision replayed
     on the restored store buffers. *)
  check_snapshot_equivalence "explicit-crash buffered" scn
    { Config.default with Config.max_failures = 0; evict_policy = Config.Buffered }

(* Buffered, with stores already in the cache when the crash drains more:
   the restored top record holds seqs up to the capture, so a restore must
   also put back the stack's sequence counter, or the drained stores would
   be stamped with seqs the record has already used. *)
let test_equivalence_restored_counter () =
  let scn =
    Explorer.scenario ~name:"restored-counter"
      ~pre:(fun ctx ->
        Ctx.store64 ctx ~label:"a" base 1;
        Ctx.mfence ctx ~label:"m" ();
        Ctx.store64 ctx ~label:"b" base 2;
        Ctx.store64 ctx ~label:"c" (base + 64) 3;
        Ctx.clflush ctx ~label:"f" base 8;
        Ctx.crash ctx)
      ~post:(fun ctx ->
        ignore (Ctx.load64 ctx ~label:"ra" base);
        ignore (Ctx.load64 ctx ~label:"rc" (base + 64)))
  in
  check_snapshot_equivalence "restored-counter" scn
    { Config.default with Config.max_failures = 0; evict_policy = Config.Buffered }

(* Two threads whose buffers both hold stores when an explicit crash fires
   inside the parallel section, to two words of one line. Each recovery
   reports the pair it read as a bug labelled with it, so the outcome lists
   every crash state reached. Restores evict into the snapshot's drained
   master, and moving on from thread 2's last prefix to thread 1's next one
   rebuilds it. *)
let test_equivalence_two_threads () =
  let x = base and y = base + 8 in
  let scn =
    Explorer.scenario ~name:"two-thread-crash"
      ~pre:(fun ctx ->
        Ctx.parallel ctx
          [
            (fun ctx ->
              Ctx.store64 ctx ~label:"a1" x 1;
              Ctx.store64 ctx ~label:"a2" y 1;
              for _ = 1 to 4 do
                ignore (Ctx.load64 ctx ~label:"spin" (base + 0x1000))
              done);
            (fun ctx ->
              Ctx.store64 ctx ~label:"b1" y 2;
              Ctx.store64 ctx ~label:"b2" x 2;
              Ctx.crash ctx);
          ])
      ~post:(fun ctx ->
        let vx = Ctx.load64 ctx ~label:"rx" x in
        let vy = Ctx.load64 ctx ~label:"ry" y in
        Ctx.abort ctx ~label:(Printf.sprintf "observed %d%d" vx vy) "crash state")
  in
  let config =
    { Config.default with Config.max_failures = 0; evict_policy = Config.Buffered }
  in
  let o = Explorer.run ~config:{ config with Config.stop_at_first_bug = false } scn in
  (* x from thread 1 and y from thread 2: both buffers drained part way. *)
  Alcotest.(check bool)
    "a crash state mixes both threads' stores" true
    (List.exists (fun b -> b.Bug.location = "observed 12") o.Explorer.bugs);
  check_snapshot_equivalence "two-thread buffered" scn config

(* The drained master against restores from freshly captured snapshots,
   over a sequence of drain prefixes that extends the master, moves an
   earlier thread after a later one evicted, and moves counts backwards.
   Both buffers hold stores to a shared line, and thread 2's a clflushopt
   and an sfence, so the evictions also reach the flush buffer and a line
   interval. A restore's views must also stay as they were when later
   restores extend the master. *)
let test_master_rebuild () =
  let x = base and y = base + 8 and z = base + 64 in
  let capture () =
    let stack = Exec.Exec_stack.create () in
    let t1 = Tso.Thread_state.create ~tid:1 and t2 = Tso.Thread_state.create ~tid:2 in
    Tso.Thread_state.exec_store t1 x ~value:7 ~width:8 ~label:"pre";
    Tso.Thread_state.drain t1 stack;
    List.iter
      (fun (th, addr, value) ->
        Tso.Thread_state.exec_store th addr ~value ~width:8 ~label:(Printf.sprintf "s%d" value))
      [ (t1, x, 1); (t2, y, 2); (t1, y, 3); (t2, x, 4); (t1, z, 5) ];
    Tso.Thread_state.exec_clflushopt t2 stack z ~label:"fo";
    Tso.Thread_state.exec_sfence t2;
    let c = Choice.create () in
    Choice.begin_replay c;
    Snapshot.capture ~point:(Choice.point c) ~stack ~threads:[ t1; t2 ]
      ~trace:(Trace.create ~depth:0) ~failure_count:0 ~fp_count:0 ~rng:0 ~last:""
      ~crash_label:None
  in
  let render (records, seq) =
    let record e =
      let stores a =
        List.map
          (fun (s : Exec.Exec_record.byte_store) ->
            Printf.sprintf "%d:%d:%s" s.Exec.Exec_record.seq s.value s.label)
          (Exec.Exec_record.visible_stores e a)
      in
      let lo, hi = Exec.Exec_record.line_bounds e z in
      Printf.sprintf "id %d [%s] z-line [%d, %d)" (Exec.Exec_record.id e)
        (String.concat " "
           (List.concat_map stores (List.sort compare (Exec.Exec_record.written_addrs e))))
        lo hi
    in
    Printf.sprintf "seq %d; %s" seq (String.concat "; " (List.map record records))
  in
  let snap = capture () in
  let earlier = ref [] in
  List.iter
    (fun keep ->
      let name = String.concat "," (List.map string_of_int (Array.to_list keep)) in
      let restored = Snapshot.materialize snap ~keep in
      Alcotest.(check string)
        ("keep " ^ name) (render (Snapshot.materialize (capture ()) ~keep)) (render restored);
      earlier := (name, restored, render restored) :: !earlier)
    [
      [| 0; 1 |]; [| 1; 1 |]; [| 1; 3 |]; [| 1; 2 |]; [| 3; 0 |];
      [| 0; 0 |]; [| 2; 4 |]; [| 3; 4 |]; [| 3; 4 |];
    ];
  List.iter
    (fun (name, restored, text) ->
      Alcotest.(check string)
        ("keep " ^ name ^ " unchanged by later restores") text (render restored))
    !earlier

let test_equivalence_analysis () =
  check_snapshot_equivalence "analysis" (flush_loop_scenario ())
    { Config.default with Config.analyze = true }

let test_equivalence_pmdk () =
  let c = List.hd (Pmdk.Workloads.fig12_cases ()) in
  check_snapshot_equivalence c.Case.id c.Case.scenario c.Case.config

let test_equivalence_recipe () =
  let c = List.hd (Recipe.Workloads.fig13_cases ()) in
  check_snapshot_equivalence c.Case.id c.Case.scenario c.Case.config

(* --- snapshots actually skip the pre-failure program ----------------------- *)

let test_snapshot_skips_pre () =
  let pre_runs = ref 0 in
  let scn =
    Explorer.scenario ~name:"skip-pre"
      ~pre:(fun ctx ->
        incr pre_runs;
        for i = 0 to 3 do
          Ctx.store64 ctx ~label:"w" (base + (64 * i)) (i + 1);
          Ctx.clflush ctx ~label:"f" (base + (64 * i)) 8
        done)
      ~post:(fun ctx ->
        for i = 0 to 3 do
          ignore (Ctx.load64 ctx ~label:"r" (base + (64 * i)))
        done)
  in
  let run snapshot =
    pre_runs := 0;
    let o = Explorer.run ~config:{ Config.default with Config.snapshot = snapshot } scn in
    (o.Explorer.stats.Stats.executions, !pre_runs)
  in
  let execs_on, pre_on = run true in
  let execs_off, pre_off = run false in
  Alcotest.(check int) "same execution count either way" execs_off execs_on;
  Alcotest.(check int) "off: pre re-executes every replay" execs_off pre_off;
  Alcotest.(check bool) "the space has crash subtrees" true (execs_off > 1);
  (* The pre-failure path has no decisions of its own, so one full replay
     captures every failure point on it and all later replays resume. *)
  Alcotest.(check int) "on: pre executes exactly once" 1 pre_on

(* --- execution budget: exact accounting ------------------------------------ *)

let test_exact_budget_not_capped () =
  let scn = flush_loop_scenario () in
  let probe = Explorer.run ~config:Config.default scn in
  Alcotest.(check bool) "probe exhausts the space" true probe.Explorer.stats.Stats.exhausted;
  let e = probe.Explorer.stats.Stats.executions in
  Alcotest.(check bool) "probe explored several executions" true (e > 2);
  List.iter
    (fun jobs ->
      List.iter
        (fun snapshot ->
          let run max_executions =
            Explorer.run
              ~config:{ Config.default with Config.max_executions; jobs; snapshot }
              scn
          in
          let o = run e in
          Alcotest.(check bool)
            (Printf.sprintf "budget=space jobs=%d snapshot=%b: exhausted" jobs snapshot)
            true o.Explorer.stats.Stats.exhausted;
          Alcotest.(check int)
            (Printf.sprintf "budget=space jobs=%d snapshot=%b: all explored" jobs snapshot)
            e o.Explorer.stats.Stats.executions;
          let o = run (e - 1) in
          Alcotest.(check bool)
            (Printf.sprintf "budget=space-1 jobs=%d snapshot=%b: capped" jobs snapshot)
            false o.Explorer.stats.Stats.exhausted)
        [ true; false ])
    (Test_env.jobs_matrix ~default:[ 1; 2; 4 ])

(* --- clwb is a distinct flush kind ----------------------------------------- *)

let test_clwb_event_render () =
  Alcotest.(check string)
    "clwb renders as clwb" "clwb persist line 0x1000"
    (Analysis.Event.render
       (Analysis.Event.Flush
          { line_addr = 0x1000; kind = Analysis.Event.Clwb; tid = 0; label = "persist" }));
  Alcotest.(check string)
    "clflushopt still renders as clflushopt" "clflushopt persist line 0x1000"
    (Analysis.Event.render
       (Analysis.Event.Flush
          { line_addr = 0x1000; kind = Analysis.Event.Clflushopt; tid = 0; label = "persist" }))

let test_clwb_bug_trace () =
  let scn =
    Explorer.scenario ~name:"clwb-trace"
      ~pre:(fun ctx ->
        Ctx.store64 ctx ~label:"w" base 1;
        Ctx.clwb ctx ~label:"persist" base 8;
        Ctx.sfence ctx ~label:"fence" ())
      ~post:(fun ctx ->
        Ctx.check ctx ~label:"inv" (Ctx.load64 ctx ~label:"r" base = 999) "always fails")
  in
  let o = Explorer.run ~config:{ Config.default with Config.stop_at_first_bug = false } scn in
  Alcotest.(check bool) "bug found" true (Explorer.found_bug o);
  let lines = List.concat_map (fun b -> b.Bug.trace) o.Explorer.bugs in
  Alcotest.(check bool)
    "trace names the clwb instruction" true
    (List.exists (contains ~needle:"clwb persist") lines);
  Alcotest.(check bool)
    "trace does not mislabel it clflushopt" false
    (List.exists (contains ~needle:"clflushopt") lines)

(* --- parallel sections: join drains only the section's fibers -------------- *)

let test_join_drains_only_section_fibers () =
  (* Fiber A has a store sitting in its private store buffer while fiber B
     completes a nested parallel section. B's inner join must not drain A's
     buffer (there is no synchronisation edge between B's join and A), so
     B's read of A's address still sees the initial value. *)
  let observed = ref (-1) in
  let scn =
    Explorer.scenario ~name:"sibling-buffer"
      ~pre:(fun ctx ->
        Ctx.parallel ctx
          [
            (fun ctx ->
              Ctx.store64 ctx ~label:"A1" base 42;
              Ctx.store64 ctx ~label:"A2" (base + 8) 1;
              Ctx.store64 ctx ~label:"A3" (base + 16) 1);
            (fun ctx ->
              Ctx.store64 ctx ~label:"B1" (base + 24) 2;
              Ctx.parallel ctx [ (fun ctx -> Ctx.store64 ctx ~label:"C1" (base + 32) 3) ];
              observed := Ctx.load64 ctx ~label:"B-read" base);
          ])
      ~post:(fun _ -> ())
  in
  let config =
    { Config.default with Config.evict_policy = Config.Buffered; max_failures = 0 }
  in
  let o = Explorer.run ~config scn in
  Alcotest.(check bool) "no bugs" true (o.Explorer.bugs = []);
  Alcotest.(check int) "sibling store still buffered across the inner join" 0 !observed

let test_sequential_sections_sync_edges () =
  (* Many back-to-back sections: each join still makes its own fibers'
     stores visible to the parent, and dead fibers are dropped from the
     live-thread set rather than accumulating. *)
  let n = 50 in
  let scn =
    Explorer.scenario ~name:"sequential-sections"
      ~pre:(fun ctx ->
        for i = 0 to n - 1 do
          let addr = base + (8 * i) in
          Ctx.parallel ctx [ (fun ctx -> Ctx.store64 ctx ~label:"fiber" addr (i + 1)) ];
          Ctx.check ctx ~label:"join"
            (Ctx.load64 ctx ~label:"after-join" addr = i + 1)
            "fiber store visible after its join"
        done)
      ~post:(fun _ -> ())
  in
  let config =
    { Config.default with Config.evict_policy = Config.Buffered; max_failures = 0 }
  in
  let o = Explorer.run ~config scn in
  Alcotest.(check bool) "no bugs" true (o.Explorer.bugs = []);
  Alcotest.(check bool) "exhausted" true o.Explorer.stats.Stats.exhausted

(* The mechanism snapshots are built on: a bounded view shares the live
   record's line logs but hides everything pushed after the capture, and a
   freeze physically truncates to the bound and accepts new stores again. *)
let test_bounded_view () =
  let e = Exec.Exec_record.create ~id:1 in
  let addr = 0x40 in
  Exec.Exec_record.push_store e addr ~width:1 ~value:1 ~seq:1 ~label:"a";
  Exec.Exec_record.push_store e addr ~width:1 ~value:2 ~seq:2 ~label:"b";
  let view = Exec.Exec_record.snapshot_view ~bound:2 e in
  Exec.Exec_record.push_store e addr ~width:1 ~value:3 ~seq:5 ~label:"c";
  Exec.Exec_record.push_store e 0x80 ~width:1 ~value:9 ~seq:6 ~label:"d";
  let last r = Exec.Exec_record.last_store_byte r addr in
  Alcotest.(check int) "live record sees the newest store" 3 (last e);
  Alcotest.(check int) "view still ends at the capture" 2 (last view);
  Alcotest.(check bool)
    "address first stored after the capture is invisible" false
    (Exec.Exec_record.visible_stores view 0x80 <> []);
  Alcotest.(check int) "visible length stops at the bound" 2
    (List.length (Exec.Exec_record.visible_stores view addr));
  Alcotest.(check (list int)) "written addresses stop at the bound" [ addr ]
    (Exec.Exec_record.written_addrs view);
  Alcotest.(check int) "next-seq beyond the bound is infinity" Pmem.Line_table.infinity
    (Exec.Exec_record.next_store_seq_after view addr 2);
  Alcotest.(check int) "next-seq inside the bound" 2
    (Exec.Exec_record.next_store_seq_after view addr 1);
  Alcotest.check_raises "views are read-only"
    (Invalid_argument "Exec_record.push_store: snapshot views are read-only") (fun () ->
      Exec.Exec_record.push_store view addr ~width:1 ~value:7 ~seq:9 ~label:"x");
  let frozen = Exec.Exec_record.snapshot_freeze view in
  Exec.Exec_record.push_store frozen addr ~width:1 ~value:4 ~seq:7 ~label:"drain";
  Alcotest.(check int) "freeze accepts the drained store" 4 (last frozen);
  Alcotest.(check int) "the live record is unaffected by the freeze" 3 (last e);
  Alcotest.(check int) "the view is unaffected by the freeze" 2 (last view)

let () =
  Alcotest.run "snapshot"
    [
      ( "choice-points",
        [
          Alcotest.test_case "point / status" `Quick test_choice_points;
          Alcotest.test_case "fast_forward" `Quick test_choice_fast_forward;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "eager litmus" `Quick test_equivalence_eager;
          Alcotest.test_case "buffered litmus" `Quick test_equivalence_buffered;
          Alcotest.test_case "multi-failure" `Quick test_equivalence_multi_failure;
          Alcotest.test_case "explicit crash" `Quick test_equivalence_explicit_crash;
          Alcotest.test_case "restored sequence counter" `Quick
            test_equivalence_restored_counter;
          Alcotest.test_case "two-thread buffered crash" `Quick test_equivalence_two_threads;
          Alcotest.test_case "drained master rebuild" `Quick test_master_rebuild;
          Alcotest.test_case "analysis passes" `Quick test_equivalence_analysis;
          Alcotest.test_case "PMDK case" `Quick test_equivalence_pmdk;
          Alcotest.test_case "RECIPE case" `Quick test_equivalence_recipe;
        ] );
      ( "resume",
        [ Alcotest.test_case "pre runs exactly once" `Quick test_snapshot_skips_pre ] );
      ("bounded-view", [ Alcotest.test_case "seq-bound semantics" `Quick test_bounded_view ]);
      ( "budget",
        [ Alcotest.test_case "exact budget is exhausted" `Quick test_exact_budget_not_capped ] );
      ( "clwb",
        [
          Alcotest.test_case "event render" `Quick test_clwb_event_render;
          Alcotest.test_case "bug trace kind" `Quick test_clwb_bug_trace;
        ] );
      ( "parallel-drain",
        [
          Alcotest.test_case "join scope" `Quick test_join_drains_only_section_fibers;
          Alcotest.test_case "sequential sections" `Quick test_sequential_sections_sync_edges;
        ] );
    ]
