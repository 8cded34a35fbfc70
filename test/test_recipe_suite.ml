(* Functional and model-checking tests across the RECIPE mini-suite. *)
open Jaaru

let no_failures = { Config.default with Config.max_failures = 0 }

let run_functional name body =
  let o = Explorer.run ~config:no_failures (Explorer.scenario ~name ~pre:body ~post:(fun _ -> ())) in
  List.iter (fun b -> Format.printf "BUG %a@." Bug.pp b) o.Explorer.bugs;
  Alcotest.(check bool) (name ^ ": no bugs") false (Explorer.found_bug o)

let keys n = List.init n (fun i -> ((i * 17) mod 97) + 1)

let cceh_functional () =
  run_functional "cceh-fn" (fun ctx ->
      let t = Recipe.Cceh.create_or_open ctx in
      List.iter (fun k -> Recipe.Cceh.insert t k (k * 3)) (keys 30);
      Recipe.Cceh.check t;
      List.iter
        (fun k -> Ctx.check ctx (Recipe.Cceh.lookup t k = Some (k * 3)) "cceh lookup")
        (keys 30);
      Ctx.check ctx (Recipe.Cceh.lookup t 4099 = None) "cceh phantom";
      Recipe.Cceh.insert t 5 999;
      Ctx.check ctx (Recipe.Cceh.lookup t 5 = Some 999) "cceh update";
      Recipe.Cceh.remove t 5;
      Ctx.check ctx (Recipe.Cceh.lookup t 5 = None) "cceh remove";
      Recipe.Cceh.check t)

let fast_fair_functional () =
  run_functional "ff-fn" (fun ctx ->
      let t = Recipe.Fast_fair.create_or_open ctx in
      List.iter (fun k -> Recipe.Fast_fair.insert t k (k * 3)) (keys 40);
      Recipe.Fast_fair.check t;
      List.iter
        (fun k -> Ctx.check ctx (Recipe.Fast_fair.lookup t k = Some (k * 3)) "ff lookup")
        (keys 40);
      Ctx.check ctx (Recipe.Fast_fair.lookup t 4099 = None) "ff phantom";
      Recipe.Fast_fair.insert t 7 999;
      Ctx.check ctx (Recipe.Fast_fair.lookup t 7 = Some 999) "ff update";
      let ks = List.map fst (Recipe.Fast_fair.entries t) in
      Ctx.check ctx (ks = List.sort_uniq compare (7 :: keys 40)) "ff entries sorted")

let p_art_functional () =
  run_functional "art-fn" (fun ctx ->
      let t = Recipe.P_art.create_or_open ctx in
      List.iter (fun k -> Recipe.P_art.insert t k (k * 3)) (keys 40);
      Recipe.P_art.check t;
      List.iter
        (fun k -> Ctx.check ctx (Recipe.P_art.lookup t k = Some (k * 3)) "art lookup")
        (keys 40);
      Ctx.check ctx (Recipe.P_art.lookup t 77777 = None) "art phantom";
      Recipe.P_art.insert t 9 999;
      Ctx.check ctx (Recipe.P_art.lookup t 9 = Some 999) "art update";
      (* keys forcing multi-byte spines *)
      Recipe.P_art.insert t 0x01020304 1;
      Recipe.P_art.insert t 0x01020504 2;
      Recipe.P_art.insert t 0x01030304 3;
      Ctx.check ctx (Recipe.P_art.lookup t 0x01020304 = Some 1) "art deep 1";
      Ctx.check ctx (Recipe.P_art.lookup t 0x01020504 = Some 2) "art deep 2";
      Ctx.check ctx (Recipe.P_art.lookup t 0x01030304 = Some 3) "art deep 3";
      Recipe.P_art.check t)

let p_bwtree_functional () =
  run_functional "bwtree-fn" (fun ctx ->
      let t = Recipe.P_bwtree.create_or_open ctx in
      List.iter (fun k -> Recipe.P_bwtree.insert t k (k * 3)) (keys 25);
      Recipe.P_bwtree.check t;
      List.iter
        (fun k -> Ctx.check ctx (Recipe.P_bwtree.lookup t k = Some (k * 3)) "bw lookup")
        (keys 25);
      Ctx.check ctx (Recipe.P_bwtree.lookup t 4099 = None) "bw phantom";
      Recipe.P_bwtree.insert t 11 999;
      Ctx.check ctx (Recipe.P_bwtree.lookup t 11 = Some 999) "bw update";
      Ctx.check ctx (Recipe.P_bwtree.gc_pending t > 0) "bw gc saw retirements")

let p_clht_functional () =
  run_functional "clht-fn" (fun ctx ->
      let t = Recipe.P_clht.create_or_open ctx in
      List.iter (fun k -> Recipe.P_clht.insert t k (k * 3)) (keys 20);
      Recipe.P_clht.check t;
      List.iter
        (fun k -> Ctx.check ctx (Recipe.P_clht.lookup t k = Some (k * 3)) "clht lookup")
        (keys 20);
      Ctx.check ctx (Recipe.P_clht.lookup t 4099 = None) "clht phantom";
      Recipe.P_clht.insert t 13 999;
      Ctx.check ctx (Recipe.P_clht.lookup t 13 = Some 999) "clht update";
      Recipe.P_clht.remove t 13;
      Ctx.check ctx (Recipe.P_clht.lookup t 13 = None) "clht remove";
      Recipe.P_clht.check t)

let p_masstree_functional () =
  run_functional "mass-fn" (fun ctx ->
      let t = Recipe.P_masstree.create_or_open ctx in
      let pairs = List.map (fun k -> ((k mod 11) + 1, (k mod 7) + 1, k * 3)) (keys 25) in
      List.iter (fun (s0, s1, v) -> Recipe.P_masstree.insert t ~slice0:s0 ~slice1:s1 v) pairs;
      Recipe.P_masstree.check t;
      List.iter
        (fun (s0, s1, _) ->
          Ctx.check ctx (Recipe.P_masstree.lookup t ~slice0:s0 ~slice1:s1 <> None) "mass lookup")
        pairs;
      Ctx.check ctx (Recipe.P_masstree.lookup t ~slice0:99 ~slice1:99 = None) "mass phantom")

(* --- model checking --------------------------------------------------------- *)

let check_case (c : Case.t) () =
  let o = Explorer.run ~config:c.config c.scenario in
  Format.printf "%s: %a@." c.id Explorer.pp_outcome o;
  let verdict = Case.verdict c o.Explorer.bugs in
  if Result.is_error verdict then
    List.iter (fun b -> Format.printf "BUG %a@." Bug.pp b) o.Explorer.bugs;
  Alcotest.(check (result unit string)) (c.id ^ ": verdict") (Ok ()) verdict;
  if c.expected_symptom = None then
    Alcotest.(check bool) (c.id ^ ": exhausted") true o.Explorer.stats.Stats.exhausted

let small_fixed_cases () =
  List.map
    (fun (b, n) ->
      Case.v ~id:(b ^ "-fixed-small") ~benchmark:b ~description:"fixed (small)"
        ~config:{ Config.default with max_steps = 40_000 }
        (Recipe.Workloads.fixed_scenario b n))
    [ ("CCEH", 4); ("FAST_FAIR", 6); ("P-ART", 4); ("P-BwTree", 5); ("P-CLHT", 3); ("P-Masstree", 3) ]

let case_tests cases =
  List.map (fun c -> Alcotest.test_case c.Case.id `Quick (check_case c)) cases

let () =
  Alcotest.run "recipe-suite"
    [
      ( "functional",
        [
          Alcotest.test_case "cceh" `Quick cceh_functional;
          Alcotest.test_case "fast_fair" `Quick fast_fair_functional;
          Alcotest.test_case "p_art" `Quick p_art_functional;
          Alcotest.test_case "p_bwtree" `Quick p_bwtree_functional;
          Alcotest.test_case "p_clht" `Quick p_clht_functional;
          Alcotest.test_case "p_masstree" `Quick p_masstree_functional;
        ] );
      ("fixed", case_tests (small_fixed_cases ()));
      ("fig13", case_tests (Recipe.Workloads.fig13_cases ()));
      ("concurrent", case_tests (Recipe.Workloads.concurrent_cases ()));
    ]
