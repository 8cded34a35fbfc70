(* Property-based validation.

   The centrepiece is the eager/lazy equivalence property: for random small
   PM programs, brute-force enumeration of every legal post-failure memory
   state yields exactly the recovery behaviours Jaaru's constraint-refinement
   exploration produces. This is the soundness-and-completeness claim of the
   paper (section 3: "Jaaru does not generate any false positives or
   negatives"), checked mechanically. *)

open Jaaru

let base = 0x1000

(* --- random PM programs ------------------------------------------------------ *)

type op =
  | Store of int * int * int  (* line, word offset, value *)
  | Rmw of int * int * int  (* locked fetch-add: line, word offset, delta *)
  | Flush of int
  | Flushopt of int
  | Clwb of int
  | Fence
  | Store_n of int * int * int * int  (* line, byte offset, width, value *)
  | Load_n of int * int * int
      (* line, byte offset, width: load, then store the value plus one back *)

let lines = 3 (* cache lines the generator spans *)

(* Narrow (8/16/32-bit) accesses at any byte offset inside the two words the
   observer reads, so that they straddle words and overlap wider stores:
   buffered loads then take both the covering and the byte-wise forwarding
   path. Values may be negative or wider than the access. *)
let narrow_gen k =
  QCheck.Gen.(
    int_range 0 (lines - 1) >>= fun l ->
    oneofl [ 1; 2; 4 ] >>= fun w -> int_range 0 (16 - w) >>= fun b -> k l b w)

let narrow_value_gen = QCheck.Gen.oneofl [ 1; 2; 3; -1; 0x10_0000_0002 ]

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map3 (fun l o v -> Store (l, o, v + 1)) (int_range 0 (lines - 1)) (int_range 0 1) (int_range 0 6));
        (2, map3 (fun l o d -> Rmw (l, o, d + 1)) (int_range 0 (lines - 1)) (int_range 0 1) (int_range 0 2));
        (2, map (fun l -> Flush l) (int_range 0 (lines - 1)));
        (2, map (fun l -> Flushopt l) (int_range 0 (lines - 1)));
        (1, map (fun l -> Clwb l) (int_range 0 (lines - 1)));
        (1, return Fence);
        (2, narrow_gen (fun l b w -> map (fun v -> Store_n (l, b, w, v)) narrow_value_gen));
        (2, narrow_gen (fun l b w -> return (Load_n (l, b, w))));
      ])

let program_gen = QCheck.Gen.(list_size (int_range 1 8) op_gen)

let pp_op = function
  | Store (l, o, v) -> Printf.sprintf "st l%d+%d=%d" l o v
  | Rmw (l, o, d) -> Printf.sprintf "faa l%d+%d+=%d" l o d
  | Flush l -> Printf.sprintf "clflush l%d" l
  | Flushopt l -> Printf.sprintf "clflushopt l%d" l
  | Clwb l -> Printf.sprintf "clwb l%d" l
  | Fence -> "sfence"
  | Store_n (l, b, w, v) -> Printf.sprintf "st%d l%d+%d=%d" (8 * w) l b v
  | Load_n (l, b, w) -> Printf.sprintf "ld%d+1 l%d+%d" (8 * w) l b

let program_print ops = String.concat "; " (List.map pp_op ops)

(* Per-op shrinker: every candidate strictly decreases (kind rank, fields)
   lexicographically — Rmw and the narrow accesses simplify to a plain store,
   the weakly ordered flush kinds collapse toward clflush, and all indices
   shrink toward 0 — so QCheck's list shrinker drives failures to a minimal
   counterexample. *)
let op_shrink op yield =
  match op with
  | Store (l, o, v) ->
      if v > 1 then yield (Store (l, o, 1));
      if l > 0 then yield (Store (0, o, v));
      if o > 0 then yield (Store (l, 0, v))
  | Rmw (l, o, d) ->
      yield (Store (l, o, d));
      if d > 1 then yield (Rmw (l, o, 1));
      if l > 0 then yield (Rmw (0, o, d));
      if o > 0 then yield (Rmw (l, 0, d))
  | Flush l -> if l > 0 then yield (Flush 0)
  | Flushopt l ->
      yield (Flush l);
      if l > 0 then yield (Flushopt 0)
  | Clwb l ->
      yield (Flushopt l);
      if l > 0 then yield (Clwb 0)
  | Fence -> ()
  | Store_n (l, b, w, v) ->
      yield (Store (l, b / 8, 1));
      if v <> 1 then yield (Store_n (l, b, w, 1));
      if l > 0 then yield (Store_n (0, b, w, v));
      if b > 0 then yield (Store_n (l, 0, w, v));
      if w > 1 then yield (Store_n (l, b, 1, v))
  | Load_n (l, b, w) ->
      yield (Store_n (l, b, w, 1));
      if l > 0 then yield (Load_n (0, b, w));
      if b > 0 then yield (Load_n (l, 0, w));
      if w > 1 then yield (Load_n (l, b, 1))

let program_shrink = QCheck.Shrink.list ~shrink:op_shrink
let program_arb = QCheck.make ~print:program_print ~shrink:program_shrink program_gen

let addr_of line word = base + (64 * line) + (8 * word)

let run_program ctx ops =
  List.iter
    (fun op ->
      match op with
      | Store (l, o, v) -> Ctx.store64 ctx ~label:(pp_op op) (addr_of l o) v
      | Rmw (l, o, d) -> ignore (Ctx.fetch_add64 ctx ~label:(pp_op op) (addr_of l o) d)
      | Flush l -> Ctx.clflush ctx ~label:(pp_op op) (addr_of l 0) 8
      | Flushopt l -> Ctx.clflushopt ctx ~label:(pp_op op) (addr_of l 0) 8
      | Clwb l -> Ctx.clwb ctx ~label:(pp_op op) (addr_of l 0) 8
      | Fence -> Ctx.sfence ctx ~label:"sfence" ()
      | Store_n (l, b, w, v) -> Ctx.store ctx ~label:(pp_op op) ~width:w (addr_of l 0 + b) v
      | Load_n (l, b, w) ->
          let a = addr_of l 0 + b in
          Ctx.store ctx ~label:(pp_op op) ~width:w a (Ctx.load ctx ~label:(pp_op op) ~width:w a + 1))
    ops

(* The two-thread shape: the second thread is empty in the sequential shape;
   when present both bodies run under the deterministic round-robin
   scheduler, each with its own store and flush buffer. *)
let run_threaded ctx (t0, t1) =
  match t1 with
  | [] -> run_program ctx t0
  | _ -> Ctx.parallel ctx [ (fun ctx -> run_program ctx t0); (fun ctx -> run_program ctx t1) ]

let threaded_gen =
  QCheck.Gen.(pair (list_size (int_range 1 6) op_gen) (list_size (int_range 1 3) op_gen))

let threaded_print (t0, t1) = program_print t0 ^ " || " ^ program_print t1

let threaded_arb =
  QCheck.make ~print:threaded_print
    ~shrink:(QCheck.Shrink.pair program_shrink program_shrink)
    threaded_gen

let observe_all ctx =
  let v l o = Ctx.load64 ctx ~label:"obs" (addr_of l o) in
  String.concat ","
    (List.concat_map
       (fun l -> List.map (fun o -> string_of_int (v l o)) [ 0; 1 ])
       (List.init lines Fun.id))

let eager_equals_lazy pre =
  let post = observe_all in
  let eager = Yat.Eager.check ~state_limit:200_000 ~pre ~post () in
  let lazy_b = Yat.Eager.jaaru_behaviors ~pre ~post () in
  (not eager.Yat.Eager.truncated) && eager.Yat.Eager.behaviors = lazy_b

let prop_eager_equals_lazy =
  QCheck.Test.make ~name:"eager enumeration = lazy exploration" ~count:500 program_arb
    (fun ops -> eager_equals_lazy (fun ctx -> run_program ctx ops))

let prop_eager_equals_lazy_threaded =
  QCheck.Test.make ~name:"eager = lazy with a second thread" ~count:500 threaded_arb
    (fun prog -> eager_equals_lazy (fun ctx -> run_threaded ctx prog))

(* The same property under the Buffered eviction policy, where the store
   buffer and flush buffer add drain nondeterminism. Lazy exploration must
   produce a SUPERSET of the eager-policy behaviours (it adds states where
   buffered stores were lost) and every behaviour it produces must be a
   prefix-consistent cut; here we check a cheaper invariant: the set of
   behaviours under Buffered contains the all-drained behaviours of Eager. *)
let prop_buffered_superset =
  QCheck.Test.make ~name:"buffered behaviors superset of eager-policy" ~count:60 program_arb
    (fun ops ->
      let pre ctx = run_program ctx ops in
      let post = observe_all in
      let eager_policy = Yat.Eager.jaaru_behaviors ~pre ~post () in
      let buffered =
        Yat.Eager.jaaru_behaviors
          ~config:{ Config.default with Config.evict_policy = Config.Buffered }
          ~pre ~post ()
      in
      List.for_all (fun b -> List.mem b buffered) eager_policy)

(* Determinism: running the same scenario twice gives identical statistics. *)
let prop_exploration_deterministic =
  QCheck.Test.make ~name:"exploration is deterministic" ~count:40 threaded_arb
    (fun prog ->
      let scn =
        Explorer.scenario ~name:"d"
          ~pre:(fun ctx -> run_threaded ctx prog)
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
    program_arb
    (fun ops ->
      let behaviors ops =
        Yat.Eager.jaaru_behaviors ~pre:(fun ctx -> run_program ctx ops) ~post:observe_all ()
      in
      behaviors (ops @ [ Flush 0; Fence ]) = behaviors ops)

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

(* Drive a structure and the OCaml Map together; any disagreement fails the
   checked program itself via an assertion. *)
let model_check_structure ~insert ~remove ~lookup ~final_check ops ctx =
  let model = ref IntMap.empty in
  List.iter
    (function
      | Insert (k, v) ->
          insert k v;
          model := IntMap.add k v !model
      | Remove k -> (
          match remove with
          | Some remove ->
              remove k;
              model := IntMap.remove k !model
          | None -> ())
      | Lookup k ->
          Ctx.check ctx
            (lookup k = IntMap.find_opt k !model)
            (Printf.sprintf "lookup %d disagrees with the model" k))
    ops;
  IntMap.iter
    (fun k v -> Ctx.check ctx (lookup k = Some v) (Printf.sprintf "final lookup %d" k))
    !model;
  final_check ()

let structure_agrees name build ops =
  let config =
    { Config.default with Config.max_failures = 0; Config.region_size = 256 * 1024 }
  in
  let pre ctx = build ctx ops in
  let o = Explorer.run ~config (Explorer.scenario ~name ~pre ~post:(fun _ -> ())) in
  if Explorer.found_bug o then
    List.iter (fun b -> Format.eprintf "%s model bug: %a@." name Bug.pp b) o.Explorer.bugs;
  not (Explorer.found_bug o)

let prop_btree_model =
  QCheck.Test.make ~name:"btree = Map" ~count:60
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops ->
      structure_agrees "btree"
        (fun ctx ops ->
          let t = Pmdk.Btree_map.create_or_open ctx in
          model_check_structure
            ~insert:(Pmdk.Btree_map.insert t)
            ~remove:(Some (Pmdk.Btree_map.remove t))
            ~lookup:(Pmdk.Btree_map.lookup t)
            ~final_check:(fun () -> Pmdk.Btree_map.check t)
            ops ctx)
        ops)

let prop_rbtree_model =
  QCheck.Test.make ~name:"rbtree = Map" ~count:60
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops ->
      structure_agrees "rbtree"
        (fun ctx ops ->
          let t = Pmdk.Rbtree_map.create_or_open ctx in
          model_check_structure
            ~insert:(Pmdk.Rbtree_map.insert t)
            ~remove:(Some (Pmdk.Rbtree_map.remove t))
            ~lookup:(Pmdk.Rbtree_map.lookup t)
            ~final_check:(fun () -> Pmdk.Rbtree_map.check t)
            ops ctx)
        ops)

let prop_hashmap_atomic_model =
  QCheck.Test.make ~name:"hashmap_atomic = Map" ~count:60
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops ->
      structure_agrees "hashmap_atomic"
        (fun ctx ops ->
          let t = Pmdk.Hashmap_atomic.create_or_open ctx in
          model_check_structure
            ~insert:(Pmdk.Hashmap_atomic.insert t)
            ~remove:(Some (Pmdk.Hashmap_atomic.remove t))
            ~lookup:(Pmdk.Hashmap_atomic.lookup t)
            ~final_check:(fun () -> Pmdk.Hashmap_atomic.check t)
            ops ctx)
        ops)

let prop_hashmap_tx_model =
  QCheck.Test.make ~name:"hashmap_tx = Map" ~count:60
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops ->
      structure_agrees "hashmap_tx"
        (fun ctx ops ->
          let t = Pmdk.Hashmap_tx.create_or_open ctx in
          model_check_structure
            ~insert:(Pmdk.Hashmap_tx.insert t)
            ~remove:(Some (Pmdk.Hashmap_tx.remove t))
            ~lookup:(Pmdk.Hashmap_tx.lookup t)
            ~final_check:(fun () -> Pmdk.Hashmap_tx.check t)
            ops ctx)
        ops)

let prop_ctree_model =
  QCheck.Test.make ~name:"ctree = Map" ~count:60
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops ->
      structure_agrees "ctree"
        (fun ctx ops ->
          let t = Pmdk.Ctree_map.create_or_open ctx in
          model_check_structure
            ~insert:(Pmdk.Ctree_map.insert t)
            ~remove:(Some (Pmdk.Ctree_map.remove t))
            ~lookup:(Pmdk.Ctree_map.lookup t)
            ~final_check:(fun () -> Pmdk.Ctree_map.check t)
            ops ctx)
        ops)

let prop_skiplist_model =
  QCheck.Test.make ~name:"skiplist = Map" ~count:60
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops ->
      structure_agrees "skiplist"
        (fun ctx ops ->
          let t = Pmdk.Skiplist_map.create_or_open ctx in
          model_check_structure
            ~insert:(Pmdk.Skiplist_map.insert t)
            ~remove:(Some (Pmdk.Skiplist_map.remove t))
            ~lookup:(Pmdk.Skiplist_map.lookup t)
            ~final_check:(fun () -> Pmdk.Skiplist_map.check t)
            ops ctx)
        ops)

let prop_cceh_model =
  QCheck.Test.make ~name:"cceh = Map" ~count:40
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops ->
      structure_agrees "cceh"
        (fun ctx ops ->
          let t = Recipe.Cceh.create_or_open ctx in
          model_check_structure
            ~insert:(Recipe.Cceh.insert t)
            ~remove:(Some (Recipe.Cceh.remove t))
            ~lookup:(Recipe.Cceh.lookup t)
            ~final_check:(fun () -> Recipe.Cceh.check t)
            ops ctx)
        ops)

let prop_fast_fair_model =
  QCheck.Test.make ~name:"fast_fair = Map" ~count:40
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops ->
      structure_agrees "fast_fair"
        (fun ctx ops ->
          let t = Recipe.Fast_fair.create_or_open ctx in
          model_check_structure
            ~insert:(Recipe.Fast_fair.insert t)
            ~remove:(Some (Recipe.Fast_fair.remove t))
            ~lookup:(Recipe.Fast_fair.lookup t)
            ~final_check:(fun () -> Recipe.Fast_fair.check t)
            ops ctx)
        ops)

let prop_p_art_model =
  QCheck.Test.make ~name:"p_art = Map" ~count:40
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops ->
      structure_agrees "p_art"
        (fun ctx ops ->
          let t = Recipe.P_art.create_or_open ctx in
          model_check_structure
            ~insert:(Recipe.P_art.insert t)
            ~remove:(Some (Recipe.P_art.remove t))
            ~lookup:(Recipe.P_art.lookup t)
            ~final_check:(fun () -> Recipe.P_art.check t)
            ops ctx)
        ops)

let prop_p_clht_model =
  QCheck.Test.make ~name:"p_clht = Map" ~count:40
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops ->
      structure_agrees "p_clht"
        (fun ctx ops ->
          let t = Recipe.P_clht.create_or_open ~nbuckets:8 ctx in
          model_check_structure
            ~insert:(Recipe.P_clht.insert t)
            ~remove:(Some (Recipe.P_clht.remove t))
            ~lookup:(Recipe.P_clht.lookup t)
            ~final_check:(fun () -> Recipe.P_clht.check t)
            ops ctx)
        ops)

let prop_p_bwtree_model =
  QCheck.Test.make ~name:"p_bwtree = Map" ~count:40
    (QCheck.make ~print:print_map_ops map_ops_gen)
    (fun ops ->
      structure_agrees "p_bwtree"
        (fun ctx ops ->
          let t = Recipe.P_bwtree.create_or_open ctx in
          model_check_structure
            ~insert:(Recipe.P_bwtree.insert t)
            ~remove:(Some (Recipe.P_bwtree.remove t))
            ~lookup:(Recipe.P_bwtree.lookup t)
            ~final_check:(fun () -> Recipe.P_bwtree.check t)
            ops ctx)
        ops)

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
        ] );
      ( "models",
        [
          QCheck_alcotest.to_alcotest prop_btree_model;
          QCheck_alcotest.to_alcotest prop_rbtree_model;
          QCheck_alcotest.to_alcotest prop_hashmap_atomic_model;
          QCheck_alcotest.to_alcotest prop_hashmap_tx_model;
          QCheck_alcotest.to_alcotest prop_ctree_model;
          QCheck_alcotest.to_alcotest prop_skiplist_model;
          QCheck_alcotest.to_alcotest prop_cceh_model;
          QCheck_alcotest.to_alcotest prop_fast_fair_model;
          QCheck_alcotest.to_alcotest prop_p_art_model;
          QCheck_alcotest.to_alcotest prop_p_clht_model;
          QCheck_alcotest.to_alcotest prop_p_bwtree_model;
        ] );
      ( "crash-consistency",
        [
          QCheck_alcotest.to_alcotest prop_random_crash_consistency;
          QCheck_alcotest.to_alcotest prop_random_hashmap_crash_consistency;
          QCheck_alcotest.to_alcotest prop_random_skiplist_crash_consistency;
          QCheck_alcotest.to_alcotest prop_random_clog_prefix;
        ] );
    ]
