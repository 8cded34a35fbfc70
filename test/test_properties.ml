(* Property-based validation.

   The centrepiece is the eager/lazy equivalence property: for random small
   PM programs, brute-force enumeration of every legal post-failure memory
   state yields exactly the recovery behaviours Jaaru's constraint-refinement
   exploration produces. This is the soundness-and-completeness claim of the
   paper (section 3: "Jaaru does not generate any false positives or
   negatives"), checked mechanically. *)

open Jaaru

let sequential = Program.arb Program.sequential
let threaded = Program.arb { Program.sequential with threads = [ (1, 6); (1, 3) ] }
let observe_all = Program.observe Program.sequential

let eager_equals_lazy prog =
  let pre ctx = Program.run ctx prog and post = observe_all in
  let eager = Yat.Eager.check ~state_limit:200_000 ~pre ~post () in
  let lazy_b = Yat.Eager.jaaru_behaviors ~pre ~post () in
  (not eager.Yat.Eager.truncated) && eager.Yat.Eager.behaviors = lazy_b

let prop_eager_equals_lazy =
  QCheck.Test.make ~name:"eager enumeration = lazy exploration" ~count:500 sequential
    eager_equals_lazy

let prop_eager_equals_lazy_threaded =
  QCheck.Test.make ~name:"eager = lazy with a second thread" ~count:500 threaded
    eager_equals_lazy

(* The same property under the Buffered eviction policy, where the store
   buffer and flush buffer add drain nondeterminism. Lazy exploration must
   produce a SUPERSET of the eager-policy behaviours (it adds states where
   buffered stores were lost) and every behaviour it produces must be a
   prefix-consistent cut; here we check a cheaper invariant: the set of
   behaviours under Buffered contains the all-drained behaviours of Eager. *)
let buffered_superset ~max_failures prog =
  let behaviors evict_policy =
    Yat.Eager.jaaru_behaviors
      ~config:{ Config.default with Config.evict_policy; max_failures }
      ~pre:(fun ctx -> Program.run ctx prog)
      ~post:observe_all ()
  in
  let buffered = behaviors Config.Buffered in
  List.for_all (fun b -> List.mem b buffered) (behaviors Config.Eager)

let prop_buffered_superset =
  QCheck.Test.make ~name:"buffered behaviors superset of eager-policy" ~count:60 sequential
    (buffered_superset ~max_failures:1)

(* The superset with two or three threads, each writing only its own line.
   Buffered fixes the order in which different threads' stores reach a
   line (their fences and exits, thread after thread at the crash drain),
   so on a shared line it misses orders that Px86 allows and Eager's
   schedule takes (DESIGN.md §5); on disjoint lines that order cannot
   matter. Thread 0 either ends in an explicit crash, at max_failures = 0,
   or runs to its end with failure points at max_failures = 1. Trailing
   loads of the unobserved line 3 keep the other threads running past
   thread 0, so their buffers are live at its crash. The generator draws
   every thread on line 0 and [own_lines] moves thread i to line i, so
   shrinking cannot make two threads share a line. *)
let own_lines ~crash prog =
  let pad = match prog with t0 :: _ -> List.length t0 + 2 | [] -> 0 in
  List.mapi
    (fun i ops ->
      let ops = List.map (Program.map_lines (fun l -> l + i)) ops in
      if i = 0 then if crash then ops @ [ Program.Crash ] else ops
      else if ops = [] then []
      else ops @ List.init pad (fun _ -> Program.Load (3, 0)))
    prog

let prop_buffered_superset_own_lines =
  QCheck.Test.make ~name:"buffered superset with threads on disjoint lines" ~count:200
    (QCheck.make
       ~print:(fun (crash, prog) -> Program.print (own_lines ~crash prog))
       ~shrink:(fun (crash, prog) -> QCheck.Iter.map (fun p -> (crash, p)) (Program.shrink prog))
       QCheck.Gen.(
         pair bool
           (Program.gen
              { Program.sequential with lines = 1; threads = [ (1, 4); (1, 4); (0, 4) ] })))
    (fun (crash, prog) ->
      buffered_superset ~max_failures:(if crash then 0 else 1) (own_lines ~crash prog))

(* Determinism: running the same scenario twice gives identical statistics. *)
let prop_exploration_deterministic =
  QCheck.Test.make ~name:"exploration is deterministic" ~count:40 threaded (fun prog ->
      let scn =
        Explorer.scenario ~name:"d"
          ~pre:(fun ctx -> Program.run ctx prog)
          ~post:(fun ctx -> ignore (observe_all ctx))
      in
      let a = (Explorer.run scn).Explorer.stats in
      let b = (Explorer.run scn).Explorer.stats in
      a.Stats.executions = b.Stats.executions
      && a.Stats.failure_points = b.Stats.failure_points
      && a.Stats.rf_decisions = b.Stats.rf_decisions)

(* Monotonicity: flushes only shrink the set of possible post-failure
   behaviours (paper section 4: "writes increase the set of possible
   post-failure executions while flushes decrease it"), so appending a
   trailing flush — whose pre-flush failure point still covers the original
   final state — leaves the overall recovery-behaviour set unchanged. *)
let prop_flush_shrinks =
  QCheck.Test.make ~name:"a trailing flush does not change the behaviour set" ~count:60
    sequential (fun prog ->
      let behaviors ops =
        Yat.Eager.jaaru_behaviors ~pre:(fun ctx -> Program.run ctx [ ops ]) ~post:observe_all ()
      in
      let ops = List.concat prog in
      behaviors (ops @ [ Program.Flush 0; Program.Sfence ]) = behaviors ops)

(* --- model-based testing of the data structures ------------------------------- *)

module IntMap = Map.Make (Int)

type map_op = Insert of int * int | Remove of int | Lookup of int

let map_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Insert (k, v + 1)) (int_range 1 40) (int_range 0 1000));
        (2, map (fun k -> Remove k) (int_range 1 40));
        (3, map (fun k -> Lookup k) (int_range 1 40));
      ])

let map_ops_gen = QCheck.Gen.(list_size (int_range 1 60) map_op_gen)

let print_map_ops ops =
  String.concat "; "
    (List.map
       (function
         | Insert (k, v) -> Printf.sprintf "ins %d=%d" k v
         | Remove k -> Printf.sprintf "del %d" k
         | Lookup k -> Printf.sprintf "get %d" k)
       ops)

(* A structure opened in one context, as the map the model is checked
   against. *)
type map = {
  insert : int -> int -> unit;
  remove : int -> unit;
  lookup : int -> int option;
  check : unit -> unit;
}

let as_map insert remove lookup check t =
  { insert = insert t; remove = remove t; lookup = lookup t; check = (fun () -> check t) }

(* Drive a structure and the OCaml Map together; any disagreement fails the
   checked program itself via an assertion. *)
let model_check_structure m ops ctx =
  let model = ref IntMap.empty in
  List.iter
    (function
      | Insert (k, v) ->
          m.insert k v;
          model := IntMap.add k v !model
      | Remove k ->
          m.remove k;
          model := IntMap.remove k !model
      | Lookup k ->
          Ctx.check ctx
            (m.lookup k = IntMap.find_opt k !model)
            (Printf.sprintf "lookup %d disagrees with the model" k))
    ops;
  IntMap.iter
    (fun k v -> Ctx.check ctx (m.lookup k = Some v) (Printf.sprintf "final lookup %d" k))
    !model;
  m.check ()

let structure_agrees name pre =
  let config =
    { Config.default with Config.max_failures = 0; Config.region_size = 256 * 1024 }
  in
  let o = Explorer.run ~config (Explorer.scenario ~name ~pre ~post:(fun _ -> ())) in
  if Explorer.found_bug o then
    List.iter (fun b -> Format.eprintf "%s model bug: %a@." name Bug.pp b) o.Explorer.bugs;
  not (Explorer.found_bug o)

(* One model property per structure: its name, its count, and how to open
   it in a context. *)
let models =
  [
    ( "btree", 60,
      fun ctx -> Pmdk.Btree_map.(as_map insert remove lookup check (create_or_open ctx)) );
    ( "rbtree", 60,
      fun ctx -> Pmdk.Rbtree_map.(as_map insert remove lookup check (create_or_open ctx)) );
    ( "hashmap_atomic", 60,
      fun ctx -> Pmdk.Hashmap_atomic.(as_map insert remove lookup check (create_or_open ctx)) );
    ( "hashmap_tx", 60,
      fun ctx -> Pmdk.Hashmap_tx.(as_map insert remove lookup check (create_or_open ctx)) );
    ( "ctree", 60,
      fun ctx -> Pmdk.Ctree_map.(as_map insert remove lookup check (create_or_open ctx)) );
    ( "skiplist", 60,
      fun ctx -> Pmdk.Skiplist_map.(as_map insert remove lookup check (create_or_open ctx)) );
    ( "cceh", 40,
      fun ctx -> Recipe.Cceh.(as_map insert remove lookup check (create_or_open ctx)) );
    ( "fast_fair", 40,
      fun ctx -> Recipe.Fast_fair.(as_map insert remove lookup check (create_or_open ctx)) );
    ( "p_art", 40,
      fun ctx -> Recipe.P_art.(as_map insert remove lookup check (create_or_open ctx)) );
    ( "p_clht", 40,
      fun ctx -> Recipe.P_clht.(as_map insert remove lookup check (create_or_open ~nbuckets:8 ctx)) );
    ( "p_bwtree", 40,
      fun ctx -> Recipe.P_bwtree.(as_map insert remove lookup check (create_or_open ctx)) );
  ]

let prop_model (name, count, open_map) =
  QCheck.Test.make ~name:(name ^ " = Map") ~count
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops -> structure_agrees name (fun ctx -> model_check_structure (open_map ctx) ops ctx))

(* Random fixed workloads stay crash consistent under exhaustive checking. *)
let prop_random_crash_consistency =
  QCheck.Test.make ~name:"random btree workloads are crash consistent" ~count:10
    QCheck.(make ~print:(fun l -> String.concat "," (List.map string_of_int l))
              Gen.(list_size (int_range 1 5) (int_range 1 60)))
    (fun ks ->
      let pre ctx =
        let t = Pmdk.Btree_map.create_or_open ctx in
        List.iter (fun k -> Pmdk.Btree_map.insert t k (k * 7)) ks
      in
      let post ctx =
        let t = Pmdk.Btree_map.create_or_open ctx in
        Pmdk.Btree_map.check t;
        List.iter
          (fun k ->
            match Pmdk.Btree_map.lookup t k with
            | Some v -> Ctx.check ctx (v = k * 7) "value corrupt"
            | None -> ())
          ks
      in
      let o = Explorer.run (Explorer.scenario ~name:"rand-btree" ~pre ~post) in
      (not (Explorer.found_bug o)) && o.Explorer.stats.Stats.exhausted)

let prop_random_hashmap_crash_consistency =
  QCheck.Test.make ~name:"random hashmap_atomic workloads are crash consistent" ~count:8
    QCheck.(make ~print:(fun l -> String.concat "," (List.map string_of_int l))
              Gen.(list_size (int_range 1 4) (int_range 1 60)))
    (fun ks ->
      let pre ctx =
        let t = Pmdk.Hashmap_atomic.create_or_open ctx in
        List.iter (fun k -> Pmdk.Hashmap_atomic.insert t k (k * 7)) ks
      in
      let post ctx =
        let t = Pmdk.Hashmap_atomic.create_or_open ctx in
        Pmdk.Hashmap_atomic.check t;
        List.iter
          (fun k ->
            match Pmdk.Hashmap_atomic.lookup t k with
            | Some v -> Ctx.check ctx (v = k * 7) "value corrupt"
            | None -> ())
          ks
      in
      let o = Explorer.run (Explorer.scenario ~name:"rand-hma" ~pre ~post) in
      (not (Explorer.found_bug o)) && o.Explorer.stats.Stats.exhausted)

let prop_random_skiplist_crash_consistency =
  QCheck.Test.make ~name:"random skiplist workloads are crash consistent" ~count:8
    QCheck.(make ~print:(fun l -> String.concat "," (List.map string_of_int l))
              Gen.(list_size (int_range 1 4) (int_range 1 60)))
    (fun ks ->
      let pre ctx =
        let t = Pmdk.Skiplist_map.create_or_open ctx in
        List.iter (fun k -> Pmdk.Skiplist_map.insert t k (k * 7)) ks
      in
      let post ctx =
        let t = Pmdk.Skiplist_map.create_or_open ctx in
        Pmdk.Skiplist_map.check t
      in
      let o = Explorer.run (Explorer.scenario ~name:"rand-skip" ~pre ~post) in
      (not (Explorer.found_bug o)) && o.Explorer.stats.Stats.exhausted)

let prop_random_clog_prefix =
  QCheck.Test.make ~name:"random clog appends always recover a prefix" ~count:10
    QCheck.(make ~print:(fun l -> String.concat "," (List.map string_of_int l))
              Gen.(list_size (int_range 1 5) (int_range 1 10_000)))
    (fun payloads ->
      let pre ctx =
        let t = Pmdk.Clog.create_or_open ctx in
        List.iter (Pmdk.Clog.append t) payloads
      in
      let post ctx =
        let t = Pmdk.Clog.create_or_open ctx in
        Pmdk.Clog.check t ~expected:payloads
      in
      let o = Explorer.run (Explorer.scenario ~name:"rand-clog" ~pre ~post) in
      (not (Explorer.found_bug o)) && o.Explorer.stats.Stats.exhausted)

let () =
  Alcotest.run "properties"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_eager_equals_lazy;
          QCheck_alcotest.to_alcotest prop_eager_equals_lazy_threaded;
          QCheck_alcotest.to_alcotest prop_buffered_superset;
          QCheck_alcotest.to_alcotest prop_exploration_deterministic;
          QCheck_alcotest.to_alcotest prop_flush_shrinks;
          QCheck_alcotest.to_alcotest prop_buffered_superset_own_lines;
        ] );
      ("models", List.map (fun m -> QCheck_alcotest.to_alcotest (prop_model m)) models);
      ( "crash-consistency",
        [
          QCheck_alcotest.to_alcotest prop_random_crash_consistency;
          QCheck_alcotest.to_alcotest prop_random_hashmap_crash_consistency;
          QCheck_alcotest.to_alcotest prop_random_skiplist_crash_consistency;
          QCheck_alcotest.to_alcotest prop_random_clog_prefix;
        ] );
    ]
