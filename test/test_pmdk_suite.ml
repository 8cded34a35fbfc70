(* Functional and model-checking tests across the PMDK mini-suite. *)
open Jaaru

let no_failures = { Config.default with Config.max_failures = 0 }

let run_functional name body =
  let o = Explorer.run ~config:no_failures (Explorer.scenario ~name ~pre:body ~post:(fun _ -> ())) in
  List.iter (fun b -> Format.printf "BUG %a@." Bug.pp b) o.Explorer.bugs;
  Alcotest.(check bool) (name ^ ": no bugs") false (Explorer.found_bug o)

let keys n = List.init n (fun i -> ((i * 13) mod 61) + 1)

(* --- functional semantics (no failures injected) -------------------------- *)

let ctree_functional () =
  run_functional "ctree-fn" (fun ctx ->
      let t = Pmdk.Ctree_map.create_or_open ctx in
      List.iter (fun k -> Pmdk.Ctree_map.insert t k (k * 3)) (keys 24);
      Pmdk.Ctree_map.check t;
      List.iter
        (fun k ->
          Ctx.check ctx (Pmdk.Ctree_map.lookup t k = Some (k * 3)) "ctree lookup mismatch")
        (keys 24);
      Ctx.check ctx (Pmdk.Ctree_map.lookup t 4095 = None) "ctree phantom";
      Pmdk.Ctree_map.insert t 7 999;
      Ctx.check ctx (Pmdk.Ctree_map.lookup t 7 = Some 999) "ctree update";
      Pmdk.Ctree_map.remove t 7;
      Ctx.check ctx (Pmdk.Ctree_map.lookup t 7 = None) "ctree remove";
      Pmdk.Ctree_map.check t;
      let ks = List.sort compare (List.map fst (Pmdk.Ctree_map.entries t)) in
      Ctx.check ctx
        (ks = List.filter (fun k -> k <> 7) (List.sort_uniq compare (keys 24)))
        "ctree entries")

let rbtree_functional () =
  run_functional "rbtree-fn" (fun ctx ->
      let t = Pmdk.Rbtree_map.create_or_open ctx in
      List.iter (fun k -> Pmdk.Rbtree_map.insert t k (k * 3)) (keys 30);
      Pmdk.Rbtree_map.check t;
      List.iter
        (fun k ->
          Ctx.check ctx (Pmdk.Rbtree_map.lookup t k = Some (k * 3)) "rbtree lookup mismatch")
        (keys 30);
      Ctx.check ctx (Pmdk.Rbtree_map.lookup t 4095 = None) "rbtree phantom";
      let ks = List.map fst (Pmdk.Rbtree_map.entries t) in
      Ctx.check ctx (ks = List.sort_uniq compare (keys 30)) "rbtree entries sorted";
      (* Deletion keeps the red-black invariants (check validates them). *)
      let victims = List.filteri (fun i _ -> i mod 3 = 0) (List.sort_uniq compare (keys 30)) in
      List.iter (Pmdk.Rbtree_map.remove t) victims;
      Pmdk.Rbtree_map.remove t 4095 (* absent: no-op *);
      Pmdk.Rbtree_map.check t;
      List.iter
        (fun k -> Ctx.check ctx (Pmdk.Rbtree_map.lookup t k = None) "rbtree removed")
        victims;
      Ctx.check ctx
        (List.map fst (Pmdk.Rbtree_map.entries t)
        = List.filter (fun k -> not (List.mem k victims)) (List.sort_uniq compare (keys 30)))
        "rbtree entries after removals")

let hashmap_atomic_functional () =
  run_functional "hma-fn" (fun ctx ->
      let t = Pmdk.Hashmap_atomic.create_or_open ctx in
      List.iter (fun k -> Pmdk.Hashmap_atomic.insert t k (k * 3)) (keys 20);
      Pmdk.Hashmap_atomic.check t;
      let distinct = List.length (List.sort_uniq compare (keys 20)) in
      Ctx.check ctx (Pmdk.Hashmap_atomic.count t = distinct) "hma count";
      Pmdk.Hashmap_atomic.remove t (List.hd (keys 20));
      Ctx.check ctx (Pmdk.Hashmap_atomic.count t = distinct - 1) "hma count after remove";
      Ctx.check ctx (Pmdk.Hashmap_atomic.lookup t (List.hd (keys 20)) = None) "hma removed";
      Pmdk.Hashmap_atomic.check t)

let hashmap_tx_functional () =
  run_functional "hmtx-fn" (fun ctx ->
      let t = Pmdk.Hashmap_tx.create_or_open ctx in
      List.iter (fun k -> Pmdk.Hashmap_tx.insert t k (k * 3)) (keys 20);
      Pmdk.Hashmap_tx.check t;
      List.iter
        (fun k ->
          Ctx.check ctx (Pmdk.Hashmap_tx.lookup t k = Some (k * 3)) "hmtx lookup mismatch")
        (keys 20);
      Pmdk.Hashmap_tx.remove t (List.hd (keys 20));
      Ctx.check ctx (Pmdk.Hashmap_tx.lookup t (List.hd (keys 20)) = None) "hmtx removed";
      Pmdk.Hashmap_tx.check t)

let skiplist_functional () =
  run_functional "skiplist-fn" (fun ctx ->
      let t = Pmdk.Skiplist_map.create_or_open ctx in
      List.iter (fun k -> Pmdk.Skiplist_map.insert t k (k * 3)) (keys 30);
      Pmdk.Skiplist_map.check t;
      List.iter
        (fun k ->
          Ctx.check ctx (Pmdk.Skiplist_map.lookup t k = Some (k * 3)) "skiplist lookup")
        (keys 30);
      Ctx.check ctx (Pmdk.Skiplist_map.lookup t 4095 = None) "skiplist phantom";
      Pmdk.Skiplist_map.insert t 9 999;
      Ctx.check ctx (Pmdk.Skiplist_map.lookup t 9 = Some 999) "skiplist update";
      Pmdk.Skiplist_map.remove t 9;
      Ctx.check ctx (Pmdk.Skiplist_map.lookup t 9 = None) "skiplist remove";
      Pmdk.Skiplist_map.check t;
      let ks = List.map fst (Pmdk.Skiplist_map.entries t) in
      Ctx.check ctx
        (ks = List.filter (fun k -> k <> 9) (List.sort_uniq compare (keys 30)))
        "skiplist entries sorted")

let clog_functional () =
  run_functional "clog-fn" (fun ctx ->
      let t = Pmdk.Clog.create_or_open ctx in
      List.iter (Pmdk.Clog.append t) [ 11; 22; 33 ];
      Ctx.check ctx (Pmdk.Clog.recover t = [ 11; 22; 33 ]) "clog roundtrip")

(* --- model checking: fixed variants are clean, buggy find their bug ------- *)

let check_case (c : Case.t) () =
  let o = Explorer.run ~config:c.config c.scenario in
  Format.printf "%s: %a@." c.id Explorer.pp_outcome o;
  let verdict = Case.verdict c o.Explorer.bugs in
  if Result.is_error verdict then
    List.iter (fun b -> Format.printf "BUG %a@." Bug.pp b) o.Explorer.bugs;
  Alcotest.(check (result unit string)) (c.id ^ ": verdict") (Ok ()) verdict;
  if c.expected_symptom = None then
    Alcotest.(check bool) (c.id ^ ": exhausted") true o.Explorer.stats.Stats.exhausted

let case_tests cases = List.map (fun c -> Alcotest.test_case c.Case.id `Quick (check_case c)) cases

let () =
  Alcotest.run "pmdk-suite"
    [
      ( "functional",
        [
          Alcotest.test_case "ctree" `Quick ctree_functional;
          Alcotest.test_case "rbtree" `Quick rbtree_functional;
          Alcotest.test_case "hashmap_atomic" `Quick hashmap_atomic_functional;
          Alcotest.test_case "hashmap_tx" `Quick hashmap_tx_functional;
          Alcotest.test_case "skiplist" `Quick skiplist_functional;
          Alcotest.test_case "clog" `Quick clog_functional;
        ] );
      ("fixed", case_tests (Pmdk.Workloads.fixed_cases ~n:6 ()));
      ("fig12", case_tests (Pmdk.Workloads.fig12_cases ()));
      ("checksum", case_tests (Pmdk.Workloads.checksum_cases ()));
      ("skiplist", case_tests (Pmdk.Workloads.skiplist_cases ()));
    ]
