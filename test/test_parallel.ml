(* Domain-parallel exploration: the Frontier work queue and the guarantee
   that exhaustive parallel runs report exactly what sequential runs do. *)
open Jaaru

(* --- Frontier ------------------------------------------------------------------ *)

let test_frontier_fifo () =
  let f = Frontier.create ~workers:1 () in
  Frontier.push f 1;
  Frontier.push f 2;
  Frontier.push f 3;
  Alcotest.(check (option int)) "first" (Some 1) (Frontier.pop f);
  Alcotest.(check (option int)) "second" (Some 2) (Frontier.pop f);
  Alcotest.(check (option int)) "third" (Some 3) (Frontier.pop f)

let test_frontier_termination_single () =
  let f = Frontier.create ~workers:1 () in
  Frontier.push f 42;
  Alcotest.(check (option int)) "task" (Some 42) (Frontier.pop f);
  (* The only worker asking again with an empty queue: exploration is over. *)
  Alcotest.(check (option int)) "done" None (Frontier.pop f);
  Alcotest.(check bool) "closed" true (Frontier.closed f);
  Frontier.push f 7;
  Alcotest.(check (option int)) "push after close is dropped" None (Frontier.pop f)

let test_frontier_close_wakes_everyone () =
  let f = Frontier.create ~workers:3 () in
  let d1 = Domain.spawn (fun () -> Frontier.pop f) in
  let d2 = Domain.spawn (fun () -> Frontier.pop f) in
  (* Give both a chance to block, then close. *)
  Unix.sleepf 0.05;
  Frontier.close f;
  Alcotest.(check (option int)) "worker 1 woken" None (Domain.join d1);
  Alcotest.(check (option int)) "worker 2 woken" None (Domain.join d2)

let test_frontier_parallel_drain () =
  (* Three domains drain a recursive workload: every task [n] spawns tasks
     [n - 1] and [n - 2]. All workers must process the whole tree and then
     agree on termination without an explicit close. *)
  let f = Frontier.create ~workers:3 () in
  Frontier.push f 4;
  let processed = Atomic.make 0 in
  let worker () =
    let rec go () =
      match Frontier.pop f with
      | None -> ()
      | Some n ->
          Atomic.incr processed;
          if n > 1 then begin
            Frontier.push f (n - 1);
            Frontier.push f (n - 2)
          end;
          go ()
    in
    go ()
  in
  let ds = List.init 2 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  (* tasks(n) = 1 + tasks(n-1) + tasks(n-2); tasks(0) = tasks(1) = 1 → tasks(4) = 9 *)
  Alcotest.(check int) "whole tree processed" 9 (Atomic.get processed)

let test_frontier_needs_work () =
  let f = Frontier.create ~workers:2 () in
  Alcotest.(check bool) "nobody waiting yet" false (Frontier.needs_work f);
  let d = Domain.spawn (fun () -> Frontier.pop f) in
  let rec await tries =
    if Frontier.needs_work f then ()
    else if tries = 0 then Alcotest.fail "worker never registered as hungry"
    else begin
      Unix.sleepf 0.01;
      await (tries - 1)
    end
  in
  await 200;
  Frontier.push f 5;
  Alcotest.(check (option int)) "fed" (Some 5) (Domain.join d)

(* --- parallel = sequential on the bundled workloads ----------------------------- *)

(* Snapshot counters are partition-dependent (see Stats.comparable), so the
   cross-jobs identity is on the comparable projection, not the raw record. *)
let strip_time = Stats.comparable

let check_jobs_equivalence name scenario config =
  let exhaustive = { config with Config.stop_at_first_bug = false } in
  let reference = Explorer.run ~config:{ exhaustive with Config.jobs = 1 } scenario in
  List.iter
    (fun jobs ->
      let o = Explorer.run ~config:{ exhaustive with Config.jobs = jobs } scenario in
      let tag fmt = Printf.sprintf "%s jobs=%d: %s" name jobs fmt in
      Alcotest.(check bool) (tag "same bugs") true (o.Explorer.bugs = reference.Explorer.bugs);
      Alcotest.(check bool)
        (tag "same multi-rf") true
        (o.Explorer.multi_rf = reference.Explorer.multi_rf);
      Alcotest.(check bool) (tag "same perf") true (o.Explorer.perf = reference.Explorer.perf);
      Alcotest.(check bool)
        (tag "same findings") true
        (o.Explorer.findings = reference.Explorer.findings);
      Alcotest.(check bool)
        (tag "same stats") true
        (strip_time o.Explorer.stats = strip_time reference.Explorer.stats))
    (Test_env.jobs_matrix ~default:[ 2; 3 ])

let test_parallel_pmdk_case () =
  let c = List.hd (Pmdk.Workloads.fig12_cases ()) in
  check_jobs_equivalence c.Case.id c.Case.scenario c.Case.config

let test_parallel_recipe_case () =
  let c = List.hd (Recipe.Workloads.fig13_cases ()) in
  check_jobs_equivalence c.Case.id c.Case.scenario c.Case.config

let test_parallel_clean_workload () =
  let scn = Recipe.Workloads.fixed_scenario "P-CLHT" 3 in
  check_jobs_equivalence "P-CLHT n=3" scn { Config.default with Config.max_steps = 200_000 }

let test_parallel_multi_failure () =
  (* Deeper scenario spaces (two injected failures) split and merge too. *)
  let base = 0x1000 in
  let scn =
    Explorer.scenario ~name:"multi-failure"
      ~pre:(fun ctx ->
        for i = 0 to 3 do
          Ctx.store64 ctx ~label:"w" (base + (64 * i)) (i + 1);
          Ctx.clflush ctx ~label:"f" (base + (64 * i)) 8
        done)
      ~post:(fun ctx ->
        for i = 0 to 3 do
          ignore (Ctx.load64 ctx ~label:"r" (base + (64 * i)))
        done)
  in
  check_jobs_equivalence "multi-failure" scn { Config.default with Config.max_failures = 2 }

let test_parallel_finds_seeded_bug () =
  (* A buggy case keeps reporting its bug (with identical deduplicated
     records) when explored in parallel. *)
  let c = List.hd (Pmdk.Workloads.fig12_cases ()) in
  let config =
    { c.Case.config with Config.stop_at_first_bug = false; Config.jobs = 3 }
  in
  let o = Explorer.run ~config c.Case.scenario in
  Alcotest.(check bool) "bug found with jobs=3" true (Explorer.found_bug o)

let test_parallel_analysis_reports () =
  (* With the analysis passes on, the merged findings list must render
     byte-identically for jobs = 1, 2 and 4 — the lint report is part of the
     determinism contract. *)
  let c = Case.find (Recipe.Workloads.fig13_cases ()) "CCEH-1" in
  let run jobs =
    let config =
      {
        c.Case.config with
        Config.analyze = true;
        stop_at_first_bug = false;
        jobs;
      }
    in
    let o = Explorer.run ~config c.Case.scenario in
    ( o.Explorer.findings,
      String.concat "\n"
        (List.map (Format.asprintf "%a" Analysis.Report.pp_finding) o.Explorer.findings) )
  in
  let findings1, text1 = run 1 in
  Alcotest.(check bool) "analysis produced findings" true (findings1 <> []);
  List.iter
    (fun jobs ->
      let findings, text = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d same findings" jobs)
        true (findings = findings1);
      Alcotest.(check string) (Printf.sprintf "jobs=%d same rendering" jobs) text1 text)
    (Test_env.jobs_matrix ~default:[ 2; 4 ])

let test_stats_merge_identity_and_sums () =
  let a =
    {
      Stats.zero with
      Stats.executions = 3;
      failure_points = 7;
      rf_decisions = 2;
      multi_rf_loads = 1;
      stores = 10;
      flushes = 4;
      snapshot_hits = 2;
      snapshot_misses = 1;
      wall_time = 1.5;
    }
  in
  Alcotest.(check bool) "zero is identity" true (Stats.merge Stats.zero a = a);
  let b = { a with Stats.executions = 5; failure_points = 0; rf_decisions = 4; exhausted = false } in
  let m = Stats.merge a b in
  Alcotest.(check int) "executions add" 8 m.Stats.executions;
  Alcotest.(check int) "rf decisions add" 6 m.Stats.rf_decisions;
  Alcotest.(check int) "failure points max" 7 m.Stats.failure_points;
  Alcotest.(check int) "snapshot hits add" 4 m.Stats.snapshot_hits;
  Alcotest.(check bool) "exhausted ands" false m.Stats.exhausted;
  Alcotest.(check bool) "comparable zeroes snapshot counters" true
    (Stats.comparable a = Stats.comparable { a with Stats.snapshot_hits = 5; snapshot_misses = 0 })

(* --- random threaded programs ----------------------------------------------------- *)

(* Generated programs of up to three threads under buffered eviction, where
   drain cuts and interleavings multiply the choice tree, with RMWs, both
   fences and an explicit crash among the ops: the rendered outcome must be
   byte-identical for every worker count, with the snapshot layer on or
   off. Narrow accesses land anywhere inside the observed word of each of
   two lines. *)
let shape =
  {
    Program.lines = 2;
    span = 8;
    word_values = 4;
    narrow_values = [ 1; -1; 0x1_0000_0003 ];
    weights = { Program.sequential.Program.weights with mfence = 1; crash = 1 };
    threads = [ (1, 5); (0, 2); (0, 2) ];
  }

let threaded_config =
  {
    Config.default with
    Config.evict_policy = Config.Buffered;
    max_steps = 200_000;
    stop_at_first_bug = false;
  }

let prop_jobs_snapshot_differential =
  QCheck.Test.make ~name:"jobs x snapshot byte-identical" ~count:60 (Program.arb shape)
    (fun prog ->
      let scn =
        Explorer.scenario ~name:"rand-threads"
          ~pre:(fun ctx -> Program.run ctx prog)
          ~post:(fun ctx -> ignore (Program.observe shape ctx))
      in
      let run ~jobs ~snapshot =
        Format.asprintf "%a" Explorer.pp_report
          (Explorer.run ~config:{ threaded_config with Config.jobs; snapshot } scn)
      in
      let reference = run ~jobs:1 ~snapshot:false in
      List.for_all
        (fun jobs ->
          run ~jobs ~snapshot:true = reference && run ~jobs ~snapshot:false = reference)
        (List.sort_uniq compare (1 :: Test_env.jobs_matrix ~default:[ 4 ])))

let () =
  Alcotest.run "parallel"
    [
      ( "frontier",
        [
          Alcotest.test_case "fifo order" `Quick test_frontier_fifo;
          Alcotest.test_case "single-worker termination" `Quick test_frontier_termination_single;
          Alcotest.test_case "close wakes blocked workers" `Quick test_frontier_close_wakes_everyone;
          Alcotest.test_case "parallel drain terminates" `Quick test_frontier_parallel_drain;
          Alcotest.test_case "needs_work hint" `Quick test_frontier_needs_work;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "PMDK case" `Quick test_parallel_pmdk_case;
          Alcotest.test_case "RECIPE case" `Quick test_parallel_recipe_case;
          Alcotest.test_case "clean RECIPE workload" `Quick test_parallel_clean_workload;
          Alcotest.test_case "multi-failure scenario" `Quick test_parallel_multi_failure;
          Alcotest.test_case "seeded bug still found" `Quick test_parallel_finds_seeded_bug;
          Alcotest.test_case "analysis reports" `Quick test_parallel_analysis_reports;
        ] );
      ( "stats",
        [ Alcotest.test_case "merge" `Quick test_stats_merge_identity_and_sums ] );
      ("differential", [ QCheck_alcotest.to_alcotest prop_jobs_snapshot_differential ]);
    ]
