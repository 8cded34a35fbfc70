(* The Yat-style eager baseline: analytic state counting and the real eager
   explorer, cross-validated against Jaaru's lazy exploration. *)
open Jaaru

let base = 0x1000

(* --- analytic state counts -------------------------------------------------- *)

let count_simple () =
  (* n sequential stores to one line, never flushed: n+1 states at the final
     failure point (the paper's 9-states-per-line example with n=8). *)
  let pre ctx =
    for i = 1 to 8 do
      Ctx.store64 ctx ~label:"w" (base + (8 * (i - 1))) i
    done
  in
  let t = Yat.State_count.analyze pre in
  (* Only the end-of-execution failure point exists (no flushes). *)
  Alcotest.(check int) "fps" 1 t.Yat.State_count.failure_points;
  Alcotest.(check int) "line states" 9 t.Yat.State_count.max_line_states;
  Alcotest.(check (float 1e-9)) "log10" (log10 9.) t.Yat.State_count.log10_total

let count_independent_lines () =
  (* Two lines with 3 unflushed stores each: 4 * 4 = 16 states. *)
  let pre ctx =
    for i = 1 to 3 do
      Ctx.store64 ctx ~label:"a" base i;
      Ctx.store64 ctx ~label:"b" (base + 64) i
    done
  in
  let t = Yat.State_count.analyze pre in
  Alcotest.(check (float 1e-9)) "log10" (log10 16.) t.Yat.State_count.log10_total

let count_flush_resets () =
  (* A flushed line contributes exactly one state at a later failure point. *)
  let pre ctx =
    Ctx.store64 ctx ~label:"a" base 1;
    Ctx.store64 ctx ~label:"a" base 2;
    Ctx.clflush ctx ~label:"fl" base 8;
    Ctx.store64 ctx ~label:"b" (base + 64) 1
  in
  let t = Yat.State_count.analyze pre in
  (* fp1 before the clflush: line a has 3 states. fp2 at the end: line a is
     clean (1 state), line b has 2. Total = 3 + 2 = 5. *)
  Alcotest.(check int) "fps" 2 t.Yat.State_count.failure_points;
  Alcotest.(check (float 1e-9)) "log10" (log10 5.) t.Yat.State_count.log10_total

let count_flush_bound_inclusive () =
  (* A line written back at or after seq [lo] holds every store with seq <=
     lo: one built by hand with two byte stores and a writeback bound equal
     to the newer store's seq has a single state; a third store adds one. *)
  let e = Exec.Exec_record.create ~id:1 in
  Exec.Exec_record.push_store e base ~width:1 ~value:1 ~seq:3 ~label:"a";
  Exec.Exec_record.push_store e (base + 1) ~width:1 ~value:2 ~seq:5 ~label:"b";
  Exec.Exec_record.flush_line e base ~seq:5;
  Alcotest.(check (float 1e-9)) "bound covers its own seq" 0.
    (Yat.State_count.log10_states_at e);
  Exec.Exec_record.push_store e (base + 2) ~width:1 ~value:3 ~seq:6 ~label:"c";
  Alcotest.(check (float 1e-9)) "newer store adds a state" (log10 2.)
    (Yat.State_count.log10_states_at e)

let count_recipe_explosion () =
  (* The paper's key claim: eager counts are astronomically larger than the
     handful of executions Jaaru explores. *)
  let scn = Recipe.Workloads.fixed_scenario "CCEH" 24 in
  let pre ctx = scn.Explorer.pre ctx in
  let t = Yat.State_count.analyze pre in
  Format.printf "CCEH yat: %a@." Yat.State_count.pp t;
  (* Millions of eager states where Jaaru explores a few dozen executions;
     the bench harness reports the full-size numbers. The exact figures pin
     the counter's reading of the execution record. *)
  Alcotest.(check bool) "astronomical" true (t.Yat.State_count.log10_total > 5.);
  Alcotest.(check (float 1e-9)) "log10 count" 7.098502029269 t.Yat.State_count.log10_total;
  Alcotest.(check string) "printed count" "1.25x10^7"
    (Format.asprintf "%a" Yat.State_count.pp_count t.Yat.State_count.log10_total);
  Alcotest.(check int) "failure points" 68 t.Yat.State_count.failure_points;
  Alcotest.(check int) "largest line" 21 t.Yat.State_count.max_line_states

(* --- eager vs lazy equivalence on richer programs --------------------------- *)

let behaviors_agree name pre post =
  let eager = Yat.Eager.check ~pre ~post () in
  let lazy_b = Yat.Eager.jaaru_behaviors ~pre ~post () in
  Alcotest.(check bool) (name ^ ": not truncated") false eager.Yat.Eager.truncated;
  Alcotest.(check (list string)) (name ^ ": behaviors") eager.Yat.Eager.behaviors lazy_b

let equiv_commit_store () =
  behaviors_agree "commit"
    (fun ctx ->
      Ctx.store64 ctx ~label:"data" (base + 64) 42;
      Ctx.clflush ctx ~label:"flush data" (base + 64) 8;
      Ctx.store64 ctx ~label:"commit" base (base + 64);
      Ctx.clflush ctx ~label:"flush commit" base 8)
    (fun ctx ->
      let p = Ctx.load64 ctx ~label:"read commit" base in
      if p = 0 then "empty"
      else Printf.sprintf "data=%d" (Ctx.load64 ctx ~label:"read data" p))

let equiv_clflushopt_sfence () =
  behaviors_agree "flushopt"
    (fun ctx ->
      Ctx.store64 ctx ~label:"x" base 1;
      Ctx.clflushopt ctx ~label:"opt x" base 8;
      Ctx.store64 ctx ~label:"y" (base + 64) 2;
      Ctx.clflushopt ctx ~label:"opt y" (base + 64) 8;
      Ctx.sfence ctx ~label:"sf" ();
      Ctx.store64 ctx ~label:"x2" base 3)
    (fun ctx ->
      Printf.sprintf "x=%d y=%d"
        (Ctx.load64 ctx ~label:"rx" base)
        (Ctx.load64 ctx ~label:"ry" (base + 64)))

let equiv_mixed_sizes () =
  behaviors_agree "mixed"
    (fun ctx ->
      Ctx.store64 ctx ~label:"wide" base 0x0102030405060708;
      Ctx.store16 ctx ~label:"narrow" (base + 2) 0xbeef;
      Ctx.store8 ctx ~label:"byte" (base + 7) 0x7f)
    (fun ctx ->
      Printf.sprintf "lo32=%x hi32=%x"
        (Ctx.load32 ctx ~label:"lo" base)
        (Ctx.load32 ctx ~label:"hi" (base + 4)))

let equiv_same_line_interleave () =
  behaviors_agree "fig2-3"
    (fun ctx ->
      Ctx.store64 ctx ~label:"y=1" (base + 8) 1;
      Ctx.store64 ctx ~label:"x=2" base 2;
      Ctx.clflush ctx ~label:"clflush" base 8;
      Ctx.store64 ctx ~label:"y=3" (base + 8) 3;
      Ctx.store64 ctx ~label:"x=4" base 4;
      Ctx.store64 ctx ~label:"y=5" (base + 8) 5;
      Ctx.store64 ctx ~label:"x=6" base 6)
    (fun ctx ->
      Printf.sprintf "x=%d y=%d"
        (Ctx.load64 ctx ~label:"rx" base)
        (Ctx.load64 ctx ~label:"ry" (base + 8)))

let pp_count_small () =
  let s = Format.asprintf "%a" Yat.State_count.pp_count (log10 42.) in
  Alcotest.(check string) "small" "42" s

let pp_count_large () =
  let s = Format.asprintf "%a" Yat.State_count.pp_count 182.336 in
  Alcotest.(check string) "large" "2.17x10^182" s

(* --- the oracle on the bundled clean cases --------------------------------- *)

(* The [jaaru yat] line of each clean sequential case: failure points,
   largest line and the rendered total. The oracle reads the per-byte
   projection of the execution record's line logs, so these pin it. *)
let pinned_counts =
  [
    ( "CCEH-fixed",
      "1.25x10^7 eager states over 68 failure points (largest line: 21 states)" );
    ( "FAST_FAIR-fixed",
      "982 eager states over 68 failure points (largest line: 17 states)" );
    ( "P-ART-fixed",
      "1.38x10^9 eager states over 56 failure points (largest line: 17 states)" );
    ( "P-BwTree-fixed",
      "1.33x10^11 eager states over 35 failure points (largest line: 17 states)" );
    ( "P-CLHT-fixed",
      "2.37x10^39 eager states over 15 failure points (largest line: 17 states)" );
    ( "P-Masstree-fixed",
      "8380 eager states over 31 failure points (largest line: 17 states)" );
    ( "pmdk-btree-fixed",
      "19690 eager states over 134 failure points (largest line: 9 states)" );
    ( "pmdk-clog-fixed",
      "351 eager states over 3 failure points (largest line: 7 states)" );
    ( "pmdk-ctree-fixed",
      "173 eager states over 63 failure points (largest line: 5 states)" );
    ( "pmdk-hashmap-atomic-fixed",
      "186 eager states over 73 failure points (largest line: 5 states)" );
    ( "pmdk-hashmap-tx-fixed",
      "305 eager states over 98 failure points (largest line: 5 states)" );
    ( "pmdk-rbtree-fixed",
      "3680 eager states over 153 failure points (largest line: 7 states)" );
    ( "pmdk-skiplist-fixed",
      "151 eager states over 49 failure points (largest line: 7 states)" );
  ]

let pinned_clean_cases () =
  let cases =
    List.map
      (fun (c : Pmdk.Workloads.case) -> (c.id, c.config, c.scenario))
      (Pmdk.Workloads.fixed_cases () @ Pmdk.Workloads.checksum_cases ()
     @ Pmdk.Workloads.skiplist_cases ())
    @ List.map
        (fun (c : Recipe.Workloads.case) -> (c.id, c.config, c.scenario))
        (Recipe.Workloads.fixed_cases ())
  in
  List.iter
    (fun (id, expected) ->
      match List.find_opt (fun (id', _, _) -> id' = id) cases with
      | None -> Alcotest.failf "no case %s" id
      | Some (_, config, scenario) ->
          let t = Yat.State_count.analyze ~config (fun ctx -> scenario.Explorer.pre ctx) in
          Alcotest.(check string) id expected (Format.asprintf "%a" Yat.State_count.pp t))
    pinned_counts

let () =
  Alcotest.run "yat"
    [
      ( "state-count",
        [
          Alcotest.test_case "one line" `Quick count_simple;
          Alcotest.test_case "independent lines" `Quick count_independent_lines;
          Alcotest.test_case "flush resets" `Quick count_flush_resets;
          Alcotest.test_case "flush bound inclusive" `Quick count_flush_bound_inclusive;
          Alcotest.test_case "recipe explosion" `Quick count_recipe_explosion;
          Alcotest.test_case "pp small" `Quick pp_count_small;
          Alcotest.test_case "pp large" `Quick pp_count_large;
          Alcotest.test_case "pinned clean cases" `Quick pinned_clean_cases;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "commit store" `Quick equiv_commit_store;
          Alcotest.test_case "clflushopt + sfence" `Quick equiv_clflushopt_sfence;
          Alcotest.test_case "mixed sizes" `Quick equiv_mixed_sizes;
          Alcotest.test_case "same line interleave" `Quick equiv_same_line_interleave;
        ] );
    ]
