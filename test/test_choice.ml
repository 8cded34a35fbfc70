(* The replay DFS: completeness, ordering, truncation, divergence. *)
open Jaaru

(* Drive a "program" that consumes a fixed shape of decisions and record
   every complete path. *)
let enumerate shape =
  let choice = Choice.create () in
  let paths = ref [] in
  let stop = ref false in
  while not !stop do
    Choice.begin_replay choice;
    let path = List.map (fun n -> Choice.choose choice Choice.Read_from n) shape in
    paths := path :: !paths;
    if not (Choice.advance choice) then stop := true
  done;
  List.rev !paths

let test_exhaustive_product () =
  let paths = enumerate [ 2; 3 ] in
  Alcotest.(check int) "count" 6 (List.length paths);
  Alcotest.(check bool) "all distinct" true
    (List.length (List.sort_uniq compare paths) = 6);
  Alcotest.(check (list (list int))) "first is all-defaults" [ [ 0; 0 ] ]
    [ List.hd paths ]

let test_single_alternative_no_branch () =
  let paths = enumerate [ 1; 1; 1 ] in
  Alcotest.(check int) "one path" 1 (List.length paths)

let test_dependent_tree () =
  (* The second decision exists only on one branch of the first: the DFS
     must truncate the record correctly. *)
  let choice = Choice.create () in
  let paths = ref [] in
  let stop = ref false in
  while not !stop do
    Choice.begin_replay choice;
    let a = Choice.choose choice Choice.Failure_point 2 in
    let path = if a = 0 then [ a ] else [ a; Choice.choose choice Choice.Read_from 3 ] in
    paths := path :: !paths;
    if not (Choice.advance choice) then stop := true
  done;
  let paths = List.rev !paths in
  Alcotest.(check (list (list int)))
    "four leaves" [ [ 0 ]; [ 1; 0 ]; [ 1; 1 ]; [ 1; 2 ] ] paths

let test_early_termination_truncates () =
  (* A replay may end (e.g. a bug) before consuming recorded decisions; the
     stale suffix must be dropped. *)
  let choice = Choice.create () in
  let visits = ref [] in
  let stop = ref false in
  while not !stop do
    Choice.begin_replay choice;
    let a = Choice.choose choice Choice.Read_from 2 in
    (* On branch a=0 consume a second decision; on a=1 "crash" early. *)
    let b = if a = 0 then Some (Choice.choose choice Choice.Read_from 2) else None in
    visits := (a, b) :: !visits;
    if not (Choice.advance choice) then stop := true
  done;
  Alcotest.(check (list (pair int (option int))))
    "paths" [ (0, Some 0); (0, Some 1); (1, None) ] (List.rev !visits)

let test_divergence_detection () =
  let choice = Choice.create () in
  Choice.begin_replay choice;
  ignore (Choice.choose choice Choice.Read_from 2);
  ignore (Choice.advance choice);
  Choice.begin_replay choice;
  (* Same position now claims a different arity: the program under test is
     nondeterministic. *)
  (match Choice.choose choice Choice.Read_from 3 with
  | _ -> Alcotest.fail "expected Divergence"
  | exception Choice.Divergence _ -> ());
  (* Kind mismatches too. *)
  let choice = Choice.create () in
  Choice.begin_replay choice;
  ignore (Choice.choose choice Choice.Read_from 2);
  ignore (Choice.advance choice);
  Choice.begin_replay choice;
  match Choice.choose choice Choice.Failure_point 2 with
  | _ -> Alcotest.fail "expected Divergence on kind"
  | exception Choice.Divergence _ -> ()

let test_created_counters () =
  let choice = Choice.create () in
  let stop = ref false in
  while not !stop do
    Choice.begin_replay choice;
    ignore (Choice.choose choice Choice.Failure_point 2);
    ignore (Choice.choose choice Choice.Read_from 2);
    if not (Choice.advance choice) then stop := true
  done;
  Alcotest.(check int) "fp decisions" 1 (Choice.created choice Choice.Failure_point);
  (* The rf decision is re-created on the second fp branch. *)
  Alcotest.(check int) "rf decisions" 2 (Choice.created choice Choice.Read_from)

let test_invalid_arity () =
  let choice = Choice.create () in
  Choice.begin_replay choice;
  Alcotest.check_raises "zero alternatives" (Invalid_argument "Choice.choose: no alternatives")
    (fun () -> ignore (Choice.choose choice Choice.Read_from 0))

(* --- prefixes and splitting -------------------------------------------------- *)

(* Explore [shape] the way a parallel explorer's worker does: a queue of
   subtree prefixes, each explored to exhaustion on one restarted searcher,
   donating a sibling subtree via [split] after every [split_every]-th
   execution. *)
let enumerate_with_splits ?(kind = Choice.Read_from) shape ~split_every =
  let pending = Queue.create () in
  Queue.add Choice.root pending;
  let paths = ref [] in
  let count = ref 0 in
  let choice = Choice.create () in
  while not (Queue.is_empty pending) do
    Choice.restart choice (Queue.pop pending);
    let stop = ref false in
    while not !stop do
      Choice.begin_replay choice;
      let path = List.map (fun n -> Choice.choose choice kind n) shape in
      paths := path :: !paths;
      incr count;
      let advanced = Choice.advance choice in
      if !count mod split_every = 0 then
        (match Choice.split choice with Some p -> Queue.add p pending | None -> ());
      if not advanced then stop := true
    done
  done;
  List.rev !paths

let test_resume_root_equals_create () =
  Alcotest.(check (list (list int)))
    "same leaves" (enumerate [ 2; 3; 2 ])
    (enumerate_with_splits [ 2; 3; 2 ] ~split_every:max_int)

let test_split_partitions_the_tree () =
  let sequential = List.sort compare (enumerate [ 3; 2; 4 ]) in
  List.iter
    (fun split_every ->
      let parallel = enumerate_with_splits [ 3; 2; 4 ] ~split_every in
      Alcotest.(check int)
        (Printf.sprintf "no duplicates (split_every=%d)" split_every)
        (List.length parallel)
        (List.length (List.sort_uniq compare parallel));
      Alcotest.(check (list (list int)))
        (Printf.sprintf "union is the full tree (split_every=%d)" split_every)
        sequential
        (List.sort compare parallel))
    [ 1; 2; 3 ]

let test_split_dependent_tree () =
  (* Splitting must also be sound when deeper decisions only exist on some
     branches (the donated prefix replays into a different subtree shape). *)
  let explore_one choice paths =
    Choice.begin_replay choice;
    let a = Choice.choose choice Choice.Failure_point 2 in
    let path = if a = 0 then [ a ] else [ a; Choice.choose choice Choice.Read_from 3 ] in
    paths := path :: !paths
  in
  let pending = Queue.create () in
  Queue.add Choice.root pending;
  let paths = ref [] in
  let choice = Choice.create () in
  while not (Queue.is_empty pending) do
    Choice.restart choice (Queue.pop pending);
    let stop = ref false in
    while not !stop do
      explore_one choice paths;
      let advanced = Choice.advance choice in
      (match Choice.split choice with Some p -> Queue.add p pending | None -> ());
      if not advanced then stop := true
    done
  done;
  Alcotest.(check (list (list int)))
    "four leaves, once each" [ [ 0 ]; [ 1; 0 ]; [ 1; 1 ]; [ 1; 2 ] ]
    (List.sort compare !paths)

let test_prefix_roundtrip () =
  let cells =
    [
      (Choice.Failure_point, 2, 0, 1);
      (Choice.Read_from, 5, 1, 2);
      (Choice.Drain, 4, 2, 4);
    ]
  in
  let p = Choice.prefix_of_cells ~frozen:2 cells in
  Alcotest.(check int) "depth" 3 (Choice.prefix_depth p);
  Alcotest.(check int) "frozen" 2 (Choice.prefix_frozen p);
  let s = Choice.encode_prefix p in
  (match Choice.decode_prefix s with
  | None -> Alcotest.failf "decode failed on %S" s
  | Some p' ->
      Alcotest.(check int) "roundtrip frozen" 2 (Choice.prefix_frozen p');
      Alcotest.(check bool) "roundtrip cells" true (Choice.prefix_cells p' = cells));
  Alcotest.(check bool) "root depth" true (Choice.prefix_depth Choice.root = 0);
  (* Malformed inputs are rejected, not crashed on. *)
  List.iter
    (fun s -> Alcotest.(check bool) s true (Choice.decode_prefix s = None))
    [ ""; "x"; "1;R2:0"; "1;Q2:0:2"; "9;R2:0:2"; "0;R2:2:2"; "0;R2:0:3"; "-1;R2:0:2" ]

let test_split_resumes_where_donated () =
  (* A split prefix must survive serialization and resume into exactly the
     donated subtree. *)
  let choice = Choice.create () in
  Choice.begin_replay choice;
  ignore (Choice.choose choice Choice.Read_from 3);
  ignore (Choice.choose choice Choice.Read_from 2);
  let p =
    match Choice.split choice with
    | Some p -> p
    | None -> Alcotest.fail "expected a donation"
  in
  let p =
    match Choice.decode_prefix (Choice.encode_prefix p) with
    | Some p -> p
    | None -> Alcotest.fail "roundtrip failed"
  in
  (* The donation owns alternatives 1 and 2 of the shallowest decision. *)
  let resumed = Choice.create () in
  Choice.restart resumed p;
  let paths = ref [] in
  let stop = ref false in
  while not !stop do
    Choice.begin_replay resumed;
    let a = Choice.choose resumed Choice.Read_from 3 in
    let b = Choice.choose resumed Choice.Read_from 2 in
    paths := (a, b) :: !paths;
    if not (Choice.advance resumed) then stop := true
  done;
  Alcotest.(check (list (pair int int)))
    "donated subtree" [ (1, 0); (1, 1); (2, 0); (2, 1) ]
    (List.sort compare !paths);
  (* ...and the donor no longer visits them. *)
  let donor_paths = ref [] in
  let stop = ref false in
  (* The donor's current replay was (0, 0); continue its loop. *)
  donor_paths := [ (0, 0) ];
  while not !stop do
    if Choice.advance choice then begin
      Choice.begin_replay choice;
      let a = Choice.choose choice Choice.Read_from 3 in
      let b = Choice.choose choice Choice.Read_from 2 in
      donor_paths := (a, b) :: !donor_paths
    end
    else stop := true
  done;
  Alcotest.(check (list (pair int int)))
    "donor keeps the rest" [ (0, 0); (0, 1) ]
    (List.sort compare !donor_paths)

let prop_split_partitions =
  QCheck.Test.make ~name:"splitting partitions the tree for any shape and cadence" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 0 5) (int_range 1 4)) (int_range 1 4))
    (fun (shape, split_every) ->
      let parallel = enumerate_with_splits shape ~split_every in
      let sequential = List.sort compare (enumerate shape) in
      List.sort compare parallel = sequential
      && List.length parallel = List.length (List.sort_uniq compare parallel))

let prop_dfs_visits_full_product =
  QCheck.Test.make ~name:"DFS visits the full cartesian product" ~count:50
    QCheck.(list_of_size (Gen.int_range 0 5) (int_range 1 4))
    (fun shape ->
      let paths = enumerate shape in
      let expected = List.fold_left (fun acc n -> acc * n) 1 shape in
      List.length paths = expected
      && List.length (List.sort_uniq compare paths) = expected)

(* --- points against the decision paths they stand for ----------------------- *)

(* A program whose later decisions depend on earlier ones: each node is a
   decision, each alternative leads to its own subtree. *)
type tree = Leaf | Node of Choice.kind * tree list

let rec show_tree = function
  | Leaf -> "."
  | Node (k, ch) ->
      Printf.sprintf "%c(%s)"
        (match k with Choice.Failure_point -> 'F' | Choice.Read_from -> 'R' | Choice.Drain -> 'D')
        (String.concat " " (List.map show_tree ch))

let gen_tree =
  QCheck.Gen.(
    sized_size (int_bound 24)
    @@ fix (fun self n ->
           if n = 0 then return Leaf
           else
             frequency
               [
                 (1, return Leaf);
                 ( 3,
                   pair
                     (oneofl [ Choice.Failure_point; Choice.Read_from; Choice.Drain ])
                     (int_range 1 3)
                   >>= fun (k, num) ->
                   list_repeat num (self ((n - 1) / num)) >|= fun ch -> Node (k, ch) );
               ]))

let rec tree_leaves = function
  | Leaf -> [ [] ]
  | Node (_, ch) -> List.concat (List.mapi (fun i t -> List.map (List.cons i) (tree_leaves t)) ch)

(* The structural reference the points replace: a point made after the
   decisions [path] (as [(kind, num, chosen)] triples, the last one taking
   [alt]) against the recorded decisions of the upcoming replay. *)
let reference_status path recorded =
  let d = Array.length path in
  if d = 0 then `On_path
  else if d > Array.length recorded then `Dead
  else
    let rec same i = i >= d - 1 || (path.(i) = recorded.(i) && same (i + 1)) in
    let k, n, alt = path.(d - 1) and k', n', chosen = recorded.(d - 1) in
    if not (same 0 && k = k' && n = n') then `Dead
    else if chosen = alt then `On_path
    else if chosen < alt then `Ahead
    else `Dead

type tracked = {
  point : Choice.point;
  path : (Choice.kind * int * int) array;
  mutable task : int;  (* the last task that captured it *)
  mutable dead : bool;
}

(* Explores [tree] DFS-style on one restarted searcher, donating subtrees at
   random replays, and captures a point after every decision as the
   snapshot layer does: on the alternative taken, and on the crash
   alternative of an untaken failure point. At every replay it holds each
   point's [status] against [reference_status]: exactly for points captured
   in the current task; for older ones, whose cells a restart may have
   re-created, [`On_path] and [`Ahead] must still be right. A point once
   [`Dead] never comes back, and in its own task no replay passes through
   its path again. Returns the visited leaves. *)
let explore_with_points tree seed =
  let rng = Random.State.make [| seed |] in
  let choice = Choice.create () in
  let points = ref [] in
  let task = ref 0 in
  let capture point path =
    match List.find_opt (fun t -> Choice.same_point t.point point) !points with
    | Some t -> t.task <- !task
    | None -> points := { point; path; task = !task; dead = false } :: !points
  in
  let check () =
    let recorded =
      Choice.prefix_cells (Choice.remainder choice)
      |> List.map (fun (k, n, c, _) -> (k, n, c))
      |> Array.of_list
    in
    List.iter
      (fun t ->
        let st = Choice.status choice t.point and expected = reference_status t.path recorded in
        if t.dead && st <> `Dead then failwith "a dead point came back";
        if t.dead && t.task = !task && expected <> `Dead then
          failwith "a replay passes through a dead point's path";
        if t.task = !task && st <> expected then failwith "status differs from the reference";
        if st <> `Dead && st <> expected then failwith "live status differs from the reference";
        if st = `Dead then t.dead <- true)
      !points
  in
  let rec walk path = function
    | Leaf -> List.rev_map (fun (_, _, c) -> c) path
    | Node (k, ch) ->
        let n = List.length ch in
        let c = Choice.choose choice k n in
        let path' = (k, n, c) :: path in
        capture (Choice.point choice) (Array.of_list (List.rev path'));
        if k = Choice.Failure_point && c = 0 && n > 1 then
          capture (Choice.point ~alt:1 choice) (Array.of_list (List.rev ((k, n, 1) :: path)));
        walk path' (List.nth ch c)
  in
  let pending = Queue.create () in
  Queue.add Choice.root pending;
  let leaves = ref [] in
  while not (Queue.is_empty pending) do
    Choice.restart choice (Queue.pop pending);
    incr task;
    let stop = ref false in
    while not !stop do
      Choice.begin_replay choice;
      check ();
      capture (Choice.point choice) [||];
      leaves := walk [] tree :: !leaves;
      let advanced = Choice.advance choice in
      if Random.State.int rng 3 = 0 then
        Option.iter (fun p -> Queue.add p pending) (Choice.split choice);
      if not advanced then stop := true
    done
  done;
  !leaves

let prop_points_match_paths =
  QCheck.Test.make ~name:"status agrees with the decision paths, with splits and restarts"
    ~count:300
    QCheck.(pair (make ~print:show_tree gen_tree) small_nat)
    (fun (tree, seed) ->
      let leaves = explore_with_points tree seed in
      List.sort compare leaves = List.sort compare (tree_leaves tree)
      && List.length leaves = List.length (List.sort_uniq compare leaves))

let () =
  Alcotest.run "choice"
    [
      ( "dfs",
        [
          Alcotest.test_case "exhaustive product" `Quick test_exhaustive_product;
          Alcotest.test_case "single alternative" `Quick test_single_alternative_no_branch;
          Alcotest.test_case "dependent tree" `Quick test_dependent_tree;
          Alcotest.test_case "early termination" `Quick test_early_termination_truncates;
          Alcotest.test_case "divergence" `Quick test_divergence_detection;
          Alcotest.test_case "created counters" `Quick test_created_counters;
          Alcotest.test_case "invalid arity" `Quick test_invalid_arity;
          QCheck_alcotest.to_alcotest prop_dfs_visits_full_product;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "resume from root = create" `Quick test_resume_root_equals_create;
          Alcotest.test_case "split partitions the tree" `Quick test_split_partitions_the_tree;
          Alcotest.test_case "split on a dependent tree" `Quick test_split_dependent_tree;
          Alcotest.test_case "encode/decode roundtrip" `Quick test_prefix_roundtrip;
          Alcotest.test_case "split resumes where donated" `Quick test_split_resumes_where_donated;
          QCheck_alcotest.to_alcotest prop_split_partitions;
        ] );
      ("points", [ QCheck_alcotest.to_alcotest prop_points_match_paths ]);
    ]
