(* The stateful-PBT engine: oracle semantics, negative controls (the oracle
   is not vacuously green), and driver determinism across worker counts and
   the snapshot layer. *)

let obs_list = Alcotest.(list (pair int int))

(* --- oracle ----------------------------------------------------------------- *)

let test_oracle_subsets () =
  let cmds = [ Pbt.Cmd.Insert (1, 1); Pbt.Cmd.Insert (2, 2) ] in
  let s = Pbt.Oracle.explainable Pbt.Fake.Kv Pbt.Oracle.Any_subset cmds in
  Alcotest.(check int) "four states" 4 (Pbt.Oracle.Obs_set.cardinal s);
  List.iter
    (fun o -> Alcotest.(check bool) "admissible" true (Pbt.Oracle.mem s o))
    [ []; [ (1, 1) ]; [ (2, 2) ]; [ (1, 1); (2, 2) ] ];
  Alcotest.(check bool) "torn value inadmissible" false (Pbt.Oracle.mem s [ (1, 2) ]);
  Alcotest.(check bool) "phantom key inadmissible" false (Pbt.Oracle.mem s [ (3, 3) ])

let test_oracle_prefixes () =
  let cmds = [ Pbt.Cmd.Insert (1, 1); Pbt.Cmd.Insert (2, 2) ] in
  let s = Pbt.Oracle.explainable Pbt.Fake.Kv Pbt.Oracle.Prefix_only cmds in
  Alcotest.(check int) "three states" 3 (Pbt.Oracle.Obs_set.cardinal s);
  Alcotest.(check bool) "gap state inadmissible" false (Pbt.Oracle.mem s [ (2, 2) ])

let test_oracle_remove_and_update () =
  (* insert 1=1; remove 1 — subsets reach only {} and {1=1}. *)
  let s =
    Pbt.Oracle.explainable Pbt.Fake.Kv Pbt.Oracle.Any_subset
      [ Pbt.Cmd.Insert (1, 1); Pbt.Cmd.Remove 1 ]
  in
  Alcotest.(check int) "two states" 2 (Pbt.Oracle.Obs_set.cardinal s);
  (* insert 1=1; insert 1=2 — the lost-update state {1=1} stays admissible,
     {1=2} too (first insert's line never persisted), garbage 1=3 is not. *)
  let s =
    Pbt.Oracle.explainable Pbt.Fake.Kv Pbt.Oracle.Any_subset
      [ Pbt.Cmd.Insert (1, 1); Pbt.Cmd.Insert (1, 2) ]
  in
  Alcotest.(check bool) "lost update" true (Pbt.Oracle.mem s [ (1, 1) ]);
  Alcotest.(check bool) "survivor alone" true (Pbt.Oracle.mem s [ (1, 2) ]);
  Alcotest.(check bool) "garbage" false (Pbt.Oracle.mem s [ (1, 3) ])

let test_oracle_lookups_ignored () =
  let s =
    Pbt.Oracle.explainable Pbt.Fake.Kv Pbt.Oracle.Any_subset
      [ Pbt.Cmd.Lookup 1; Pbt.Cmd.Lookup 2 ]
  in
  Alcotest.(check int) "observations change nothing" 1 (Pbt.Oracle.Obs_set.cardinal s);
  Alcotest.(check (list obs_list)) "empty" [ [] ] (Pbt.Oracle.Obs_set.elements s)

let test_oracle_log_prefix () =
  let cmds = [ Pbt.Cmd.Insert (1, 1); Pbt.Cmd.Insert (2, 2); Pbt.Cmd.Insert (3, 3) ] in
  let p1 = Pbt.Cmd.log_payload 1 1
  and p2 = Pbt.Cmd.log_payload 2 2
  and p3 = Pbt.Cmd.log_payload 3 3 in
  let s = Pbt.Oracle.explainable Pbt.Fake.Log Pbt.Oracle.Prefix_only cmds in
  Alcotest.(check int) "prefixes only" 4 (Pbt.Oracle.Obs_set.cardinal s);
  Alcotest.(check bool) "full log" true (Pbt.Oracle.mem s [ (0, p1); (1, p2); (2, p3) ]);
  Alcotest.(check bool) "lost middle record" false (Pbt.Oracle.mem s [ (0, p1); (1, p3) ]);
  Alcotest.(check bool) "lost suffix" true (Pbt.Oracle.mem s [ (0, p1) ])

(* --- registry --------------------------------------------------------------- *)

let test_registry () =
  let all = Pbt.Structures.all () in
  Alcotest.(check int) "thirteen clean structures" 13 (List.length all);
  Alcotest.(check bool) "ids unique" true
    (let ids = List.map Pbt.Structures.id (all @ Pbt.Structures.seeded ()) in
     List.length ids = List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "find clean" true (Pbt.Structures.find "pmdk-btree" <> None);
  Alcotest.(check bool) "find seeded" true
    (Pbt.Structures.find "pmdk-hashmap-atomic!missing-entry-flush" <> None);
  Alcotest.(check bool) "find unknown" true (Pbt.Structures.find "nope" = None)

(* --- negative controls ------------------------------------------------------ *)

(* The oracle must find a seeded bug within a bounded number of generated
   sequences and shrink the witness to a handful of commands — proof the
   green runs over clean structures mean something. *)
let negative_control ~id ~count ~max_cmds () =
  match Pbt.Structures.find id with
  | None -> Alcotest.fail ("unknown seeded structure " ^ id)
  | Some a ->
      let r = Pbt.Driver.run_structure ~seed:7 ~count ~max_cmds a in
      (match r.Pbt.Driver.failure with
      | None ->
          Alcotest.fail
            (Printf.sprintf "%s: seeded bug not found within %d sequence(s)" id count)
      | Some f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: witness shrank to <= 8 commands (got %d: %s)" id
               (List.length f.Pbt.Driver.cmds)
               (Pbt.Cmd.render_list f.Pbt.Driver.cmds))
            true
            (List.length f.Pbt.Driver.cmds <= 8);
          Alcotest.(check bool) (id ^ ": witness has symptoms") true
            (f.Pbt.Driver.symptoms <> []))

let test_negative_control_pmdk =
  negative_control ~id:"pmdk-hashmap-atomic!missing-entry-flush" ~count:50 ~max_cmds:6

let test_negative_control_recipe =
  negative_control ~id:"recipe-p-masstree!flush-object-not-pointer" ~count:50 ~max_cmds:6

let test_negative_control_log =
  (* skip_crc lets torn records through: recovery returns a payload that was
     never appended (or a gapped log) — inadmissible under Prefix_only. *)
  negative_control ~id:"pmdk-clog!skip-crc" ~count:50 ~max_cmds:6

(* --- clean run + determinism ------------------------------------------------ *)

let comparable r =
  let r = Pbt.Driver.comparable_report r in
  Format.asprintf "%a|seq=%d|exec=%d" Pbt.Driver.pp_report r r.Pbt.Driver.sequences
    r.Pbt.Driver.executions

let test_clean_smoke () =
  match Pbt.Structures.find "pmdk-ctree" with
  | None -> Alcotest.fail "pmdk-ctree missing"
  | Some a ->
      let r = Pbt.Driver.run_structure ~seed:3 ~count:5 ~max_cmds:4 a in
      Alcotest.(check bool) "no failure" false (Pbt.Driver.found_bug r);
      Alcotest.(check int) "all sequences ran" 5 r.Pbt.Driver.sequences;
      Alcotest.(check bool) "explored executions" true (r.Pbt.Driver.executions > 5)

let test_determinism () =
  List.iter
    (fun id ->
      match Pbt.Structures.find id with
      | None -> Alcotest.fail ("missing " ^ id)
      | Some a ->
          let run ~jobs ~snapshot =
            let config = { Pbt.Runner.config with Jaaru.Config.jobs; snapshot } in
            Pbt.Driver.run_structure ~config ~seed:11 ~count:4 ~max_cmds:4 a
          in
          let reference = comparable (run ~jobs:1 ~snapshot:true) in
          List.iter
            (fun jobs ->
              List.iter
                (fun snapshot ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s jobs=%d snapshot=%b" id jobs snapshot)
                    reference
                    (comparable (run ~jobs ~snapshot)))
                [ true; false ])
            (Test_env.jobs_matrix ~default:[ 1; 4 ]))
    [ "pmdk-hashmap-atomic"; "recipe-p-clht" ]

let test_seeded_determinism () =
  (* The shrunk witness of a failing structure is deterministic too. *)
  match Pbt.Structures.find "pmdk-hashmap-atomic!missing-entry-flush" with
  | None -> Alcotest.fail "missing seeded structure"
  | Some a ->
      let run ~jobs =
        let config = { Pbt.Runner.config with Jaaru.Config.jobs } in
        Pbt.Driver.run_structure ~config ~seed:7 ~count:50 ~max_cmds:6 a
      in
      let reference = comparable (run ~jobs:1) in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "witness stable at jobs=%d" jobs)
            reference
            (comparable (run ~jobs)))
        (Test_env.jobs_matrix ~default:[ 4 ])

let () =
  Alcotest.run "pbt"
    [
      ( "oracle",
        [
          Alcotest.test_case "subsets" `Quick test_oracle_subsets;
          Alcotest.test_case "prefixes" `Quick test_oracle_prefixes;
          Alcotest.test_case "remove/update" `Quick test_oracle_remove_and_update;
          Alcotest.test_case "lookups ignored" `Quick test_oracle_lookups_ignored;
          Alcotest.test_case "log prefix" `Quick test_oracle_log_prefix;
        ] );
      ("registry", [ Alcotest.test_case "adapters" `Quick test_registry ]);
      ( "negative-controls",
        [
          Alcotest.test_case "pmdk hashmap_atomic" `Quick test_negative_control_pmdk;
          Alcotest.test_case "recipe p-masstree" `Quick test_negative_control_recipe;
          Alcotest.test_case "clog skip-crc" `Quick test_negative_control_log;
        ] );
      ( "driver",
        [
          Alcotest.test_case "clean smoke" `Quick test_clean_smoke;
          Alcotest.test_case "jobs/layers determinism" `Quick test_determinism;
          Alcotest.test_case "seeded witness determinism" `Quick test_seeded_determinism;
        ] );
    ]
