(* The explorer driver and its reporting types. *)
open Jaaru

let base = 0x1000

(* --- Bug ----------------------------------------------------------------------- *)

let mk_bug kind location = { Bug.kind; location; exec_depth = 1; trace = []; dropped = 0 }

let test_bug_symptoms () =
  Alcotest.(check string) "illegal"
    "Illegal memory access at btree_map.ml:89"
    (Bug.symptom (mk_bug (Bug.Illegal_access { addr = 0; width = 8; op = "load" }) "btree_map.ml:89"));
  Alcotest.(check string) "assert" "Assertion failure at heap.ml:533"
    (Bug.symptom (mk_bug (Bug.Assertion_failure "boom") "heap.ml:533"));
  Alcotest.(check string) "loop" "Getting stuck in an infinite loop"
    (Bug.symptom (mk_bug (Bug.Infinite_loop { steps = 100 }) "spin"));
  Alcotest.(check string) "exception" "Failure(\"x\") at f"
    (Bug.symptom (mk_bug (Bug.Program_exception "Failure(\"x\")") "f"))

let test_bug_dedup_key () =
  let a = mk_bug (Bug.Assertion_failure "m1") "loc" in
  let b = mk_bug (Bug.Assertion_failure "m2") "loc" in
  let c = mk_bug (Bug.Assertion_failure "m1") "other" in
  let d = mk_bug (Bug.Illegal_access { addr = 1; width = 1; op = "load" }) "loc" in
  Alcotest.(check bool) "same kind+loc" true (Bug.same_report a b);
  Alcotest.(check bool) "different loc" false (Bug.same_report a c);
  Alcotest.(check bool) "different kind" false (Bug.same_report a d)

(* --- Case verdict ---------------------------------------------------------------- *)

(* One row of the verdict table: a case seeded with [expected] (clean
   without it) judged on [bugs]. *)
let verdict_row name ?expected bugs want =
  Alcotest.test_case name `Quick (fun () ->
      let c =
        Case.v ~id:"t" ~benchmark:"T" ~description:name ?expected ~config:Config.default
          (Explorer.scenario ~name:"t" ~pre:ignore ~post:ignore)
      in
      Alcotest.(check (result unit string)) name want (Case.verdict c bugs))

let verdict_rows =
  let loop = mk_bug (Bug.Infinite_loop { steps = 5 }) "spin" in
  let heap = mk_bug (Bug.Assertion_failure "m") "heap.ml:533" in
  let btree = mk_bug (Bug.Illegal_access { addr = 0; width = 8; op = "load" }) "btree_map.ml:89" in
  let seeded = [ "btree_map.ml"; "pool.ml" ] in
  [
    verdict_row "seeded, matching symptom" ~expected:seeded [ loop; btree ] (Ok ());
    verdict_row "seeded, other symptoms" ~expected:seeded [ loop; heap; loop ]
      (Error
         "seeded bug was not found; found instead: Assertion failure at heap.ml:533; Getting \
          stuck in an infinite loop");
    verdict_row "seeded, no bug" ~expected:seeded [] (Error "seeded bug was not found");
    verdict_row "clean, bug" [ heap ] (Error "clean case reported a bug");
    verdict_row "clean, no bug" [] (Ok ());
  ]

(* --- Trace --------------------------------------------------------------------- *)

let test_ring_buffer () =
  let ev label = Analysis.Event.Fence { kind = Analysis.Event.Sfence; tid = 0; label } in
  let rendered t = List.map Analysis.Event.render (Trace.events t) in
  let t = Trace.create ~depth:3 in
  Alcotest.(check (list string)) "empty" [] (rendered t);
  Trace.add t (ev "a");
  Trace.add t (ev "b");
  Alcotest.(check (list string)) "partial" [ "sfence a"; "sfence b" ] (rendered t);
  Alcotest.(check int) "nothing dropped yet" 0 (Trace.dropped t);
  Trace.add t (ev "c");
  Trace.add t (ev "d");
  Alcotest.(check (list string))
    "wrapped keeps newest"
    [ "sfence b"; "sfence c"; "sfence d" ]
    (rendered t);
  Alcotest.(check int) "overwritten events counted" 1 (Trace.dropped t);
  Trace.clear t;
  Alcotest.(check (list string)) "cleared" [] (rendered t);
  Alcotest.(check int) "dropped reset" 0 (Trace.dropped t);
  let off = Trace.create ~depth:0 in
  Trace.add off (ev "x");
  Alcotest.(check bool) "depth 0 disables" false (Trace.enabled off);
  Alcotest.(check (list string)) "disabled records nothing" [] (rendered off);
  Alcotest.(check int) "disabled drops nothing" 0 (Trace.dropped off)

(* --- Stats ---------------------------------------------------------------------- *)

let test_stats_ratio () =
  let s =
    { Stats.zero with Stats.executions = 10; failure_points = 4 }
  in
  Alcotest.(check (float 1e-9)) "ratio" 2.5 (Stats.executions_per_fp s);
  Alcotest.(check (float 1e-9)) "zero fp" 0.
    (Stats.executions_per_fp { s with Stats.failure_points = 0 })

(* --- Explorer driver -------------------------------------------------------------- *)

let test_scenario_single_dispatch () =
  (* One main function serving both roles via in_recovery. *)
  let seen_pre = ref false and seen_post = ref false in
  let main ctx =
    if Ctx.in_recovery ctx then seen_post := true
    else begin
      seen_pre := true;
      Ctx.store64 ctx ~label:"w" base 1;
      Ctx.clflush ctx ~label:"f" base 8
    end
  in
  let o = Explorer.run (Explorer.scenario_single ~name:"single" main) in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o);
  Alcotest.(check bool) "pre ran" true !seen_pre;
  Alcotest.(check bool) "post ran" true !seen_post

let buggy_scenario =
  Explorer.scenario ~name:"buggy"
    ~pre:(fun ctx ->
      Ctx.store64 ctx ~label:"w" base 1;
      Ctx.clflush ctx ~label:"f" base 8;
      Ctx.store64 ctx ~label:"w2" (base + 64) 2;
      Ctx.clflush ctx ~label:"f2" (base + 64) 8)
    ~post:(fun ctx ->
      (* Fails whenever the second store did not persist. *)
      Ctx.check ctx ~label:"oracle" (Ctx.load64 ctx ~label:"r" (base + 64) = 2) "lost")

let test_stop_at_first_bug () =
  let config = { Config.default with Config.stop_at_first_bug = true } in
  let o = Explorer.run ~config buggy_scenario in
  Alcotest.(check bool) "found" true (Explorer.found_bug o);
  Alcotest.(check bool) "not exhausted" false o.Explorer.stats.Stats.exhausted;
  let o' = Explorer.run buggy_scenario in
  Alcotest.(check bool) "exhaustive run explores more" true
    (o'.Explorer.stats.Stats.executions > o.Explorer.stats.Stats.executions)

let test_bug_dedup_in_outcome () =
  (* The same symptom from several failure points is reported once. *)
  let o = Explorer.run buggy_scenario in
  Alcotest.(check int) "one deduplicated bug" 1 (List.length o.Explorer.bugs);
  Alcotest.(check bool) "still exhausted" true o.Explorer.stats.Stats.exhausted

let test_max_executions_cutoff () =
  let config = { Config.default with Config.max_executions = 3 } in
  let o = Explorer.run ~config buggy_scenario in
  Alcotest.(check int) "cut at limit" 3 o.Explorer.stats.Stats.executions;
  Alcotest.(check bool) "not exhausted" false o.Explorer.stats.Stats.exhausted

let test_stats_counts_original_execution () =
  let pre ctx =
    Ctx.store64 ctx ~label:"w" base 1 (* 8 byte-stores *);
    Ctx.clflush ctx ~label:"f" base 8 (* 1 line flush *)
  in
  let o = Explorer.run (Explorer.scenario ~name:"counts" ~pre ~post:(fun _ -> ())) in
  Alcotest.(check int) "stores" 8 o.Explorer.stats.Stats.stores;
  Alcotest.(check int) "flushes" 1 o.Explorer.stats.Stats.flushes;
  Alcotest.(check int) "fps" 2 o.Explorer.stats.Stats.failure_points

let test_pp_outcome_mentions_bug () =
  let config = { Config.default with Config.stop_at_first_bug = true } in
  let o = Explorer.run ~config buggy_scenario in
  let s = Format.asprintf "%a" Explorer.pp_outcome o in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "mentions the symptom" true (contains s "Assertion failure at oracle")

(* --- Fuzz ------------------------------------------------------------------------- *)

let test_fuzz_aggregates () =
  let r = Fuzz.run ~seeds:[ 1; 2; 3 ] buggy_scenario in
  Alcotest.(check int) "runs" 3 r.Fuzz.runs;
  Alcotest.(check bool) "found" true (Fuzz.found_bug r);
  Alcotest.(check int) "dedup across seeds" 1 (List.length r.Fuzz.bugs);
  Alcotest.(check int) "all seeds hit" 3 (List.length r.Fuzz.buggy_seeds);
  Alcotest.(check bool) "executions summed" true (r.Fuzz.total_executions >= 3)

let test_fuzz_clean_scenario () =
  let scn =
    Explorer.scenario ~name:"clean"
      ~pre:(fun ctx ->
        Ctx.store64 ctx ~label:"w" base 1;
        Ctx.clflush ctx ~label:"f" base 8)
      ~post:(fun ctx -> ignore (Ctx.load64 ctx ~label:"r" base))
  in
  let r = Fuzz.run ~seeds:[ 1; 2 ] scn in
  Alcotest.(check bool) "clean" false (Fuzz.found_bug r);
  Alcotest.(check (list (pair int (list string)))) "no buggy seeds" [] r.Fuzz.buggy_seeds

let () =
  Alcotest.run "explorer"
    [
      ( "bug",
        [
          Alcotest.test_case "symptoms" `Quick test_bug_symptoms;
          Alcotest.test_case "dedup key" `Quick test_bug_dedup_key;
        ] );
      ("case verdict", verdict_rows);
      ("trace", [ Alcotest.test_case "ring buffer" `Quick test_ring_buffer ]);
      ("stats", [ Alcotest.test_case "ratio" `Quick test_stats_ratio ]);
      ( "driver",
        [
          Alcotest.test_case "scenario_single" `Quick test_scenario_single_dispatch;
          Alcotest.test_case "stop at first bug" `Quick test_stop_at_first_bug;
          Alcotest.test_case "bug dedup" `Quick test_bug_dedup_in_outcome;
          Alcotest.test_case "max executions" `Quick test_max_executions_cutoff;
          Alcotest.test_case "original-execution counts" `Quick test_stats_counts_original_execution;
          Alcotest.test_case "pp outcome" `Quick test_pp_outcome_mentions_bug;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "aggregates" `Quick test_fuzz_aggregates;
          Alcotest.test_case "clean scenario" `Quick test_fuzz_clean_scenario;
        ] );
    ]
