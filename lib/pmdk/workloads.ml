type case = Jaaru.Case.t

let keys n = List.init n (fun i -> ((i * 13) mod 61) + 1)

let config ?(max_steps = 60_000) () = { Jaaru.Config.default with max_steps }

(* --- btree --------------------------------------------------------------- *)

let btree_scenario ?(bugs = Btree_map.no_bugs) ?pool_bugs ?alloc_bugs n =
  let pre ctx =
    let t = Btree_map.create_or_open ~bugs ?pool_bugs ?alloc_bugs ctx in
    List.iter (fun k -> Btree_map.insert t k (k * 100)) (keys n)
  in
  let post ctx =
    let t = Btree_map.create_or_open ~bugs ?pool_bugs ?alloc_bugs ctx in
    Btree_map.check t;
    List.iter
      (fun k ->
        match Btree_map.lookup t k with
        | Some v -> Jaaru.Ctx.check ctx ~label:"workloads.ml:btree" (v = k * 100) "wrong value"
        | None -> ())
      (keys n)
  in
  Jaaru.Explorer.scenario ~name:"btree" ~pre ~post

(* --- ctree --------------------------------------------------------------- *)

let ctree_scenario ?(bugs = Ctree_map.no_bugs) ?pool_bugs ?alloc_bugs n =
  let pre ctx =
    let t = Ctree_map.create_or_open ~bugs ?pool_bugs ?alloc_bugs ctx in
    List.iter (fun k -> Ctree_map.insert t k (k * 100)) (keys n);
    (* Exercise removal so the free list sees traffic. *)
    match keys n with k :: _ -> Ctree_map.remove t k | [] -> ()
  in
  let post ctx =
    let t = Ctree_map.create_or_open ~bugs ?pool_bugs ?alloc_bugs ctx in
    Ctree_map.check t;
    List.iter (fun k -> ignore (Ctree_map.lookup t k)) (keys n)
  in
  Jaaru.Explorer.scenario ~name:"ctree" ~pre ~post

(* --- rbtree -------------------------------------------------------------- *)

let rbtree_scenario ?(bugs = Rbtree_map.no_bugs) ?pool_bugs ?alloc_bugs ?tx_bugs n =
  let pre ctx =
    let t = Rbtree_map.create_or_open ~bugs ?pool_bugs ?alloc_bugs ?tx_bugs ctx in
    List.iter (fun k -> Rbtree_map.insert t k (k * 100)) (keys n)
  in
  let post ctx =
    let t = Rbtree_map.create_or_open ~bugs ?pool_bugs ?alloc_bugs ?tx_bugs ctx in
    Rbtree_map.check t;
    List.iter (fun k -> ignore (Rbtree_map.lookup t k)) (keys n)
  in
  Jaaru.Explorer.scenario ~name:"rbtree" ~pre ~post

(* --- hashmaps ------------------------------------------------------------ *)

let hashmap_atomic_scenario ?(bugs = Hashmap_atomic.no_bugs) ?pool_bugs ?alloc_bugs n =
  let pre ctx =
    let t = Hashmap_atomic.create_or_open ~bugs ?pool_bugs ?alloc_bugs ctx in
    List.iter (fun k -> Hashmap_atomic.insert t k (k * 100)) (keys n);
    match keys n with
    | a :: b :: _ ->
        Hashmap_atomic.remove t a;
        Hashmap_atomic.insert t b (b * 200)
    | _ -> ()
  in
  let post ctx =
    let t = Hashmap_atomic.create_or_open ~bugs ?pool_bugs ?alloc_bugs ctx in
    Hashmap_atomic.check t;
    List.iter (fun k -> ignore (Hashmap_atomic.lookup t k)) (keys n)
  in
  Jaaru.Explorer.scenario ~name:"hashmap_atomic" ~pre ~post

let hashmap_tx_scenario ?(bugs = Hashmap_tx.no_bugs) ?pool_bugs ?alloc_bugs ?tx_bugs n =
  let pre ctx =
    let t = Hashmap_tx.create_or_open ~bugs ?pool_bugs ?alloc_bugs ?tx_bugs ctx in
    List.iter (fun k -> Hashmap_tx.insert t k (k * 100)) (keys n)
  in
  let post ctx =
    let t = Hashmap_tx.create_or_open ~bugs ?pool_bugs ?alloc_bugs ?tx_bugs ctx in
    Hashmap_tx.check t;
    List.iter (fun k -> ignore (Hashmap_tx.lookup t k)) (keys n)
  in
  Jaaru.Explorer.scenario ~name:"hashmap_tx" ~pre ~post

(* --- checksum log -------------------------------------------------------- *)

let clog_scenario ?(bugs = Clog.no_bugs) n =
  let payloads = List.map (fun k -> (k * 257) + 3) (keys n) in
  let pre ctx =
    let t = Clog.create_or_open ~bugs ctx in
    List.iter (Clog.append t) payloads
  in
  let post ctx =
    let t = Clog.create_or_open ~bugs ctx in
    Clog.check t ~expected:payloads
  in
  Jaaru.Explorer.scenario ~name:"clog" ~pre ~post

(* --- skiplist -------------------------------------------------------------- *)

let skiplist_scenario ?(bugs = Skiplist_map.no_bugs) ?pool_bugs ?alloc_bugs n =
  let pre ctx =
    let t = Skiplist_map.create_or_open ~bugs ?pool_bugs ?alloc_bugs ctx in
    List.iter (fun k -> Skiplist_map.insert t k (k * 100)) (keys n);
    match keys n with k :: _ -> Skiplist_map.remove t k | [] -> ()
  in
  let post ctx =
    let t = Skiplist_map.create_or_open ~bugs ?pool_bugs ?alloc_bugs ctx in
    Skiplist_map.check t;
    List.iter (fun k -> ignore (Skiplist_map.lookup t k)) (keys n)
  in
  Jaaru.Explorer.scenario ~name:"skiplist" ~pre ~post

(* --- case tables ---------------------------------------------------------- *)

let fig12_cases () =
  (* Bug hunts stop at the first manifestation, as the paper's runs do. *)
  let case = Jaaru.Case.v ~config:{ (config ()) with Jaaru.Config.stop_at_first_bug = true } in
  [
    case ~id:"pmdk-1" ~benchmark:"Btree"
      ~description:"non-transactional node split (atomicity violation)"
      ~expected:[ "btree_map.ml"; "workloads.ml:btree" ]
      (btree_scenario ~bugs:{ Btree_map.no_bugs with nontx_split = true } 8);
    case ~id:"pmdk-2" ~benchmark:"Btree"
      ~description:"pool header params not flushed before the magic commits"
      ~expected:[ "pool.ml:open" ]
      (btree_scenario ~pool_bugs:{ Pool.missing_header_flush = true } 4);
    case ~id:"pmdk-3" ~benchmark:"Hashmap_atomic"
      ~description:"allocator bump pointer not flushed (heap walk assert)"
      ~expected:[ "heap.ml" ]
      (hashmap_atomic_scenario
         ~alloc_bugs:{ Pmalloc.no_bugs with missing_bump_flush = true }
         6);
    case ~id:"pmdk-4" ~benchmark:"CTree"
      ~description:"fresh internal node not flushed before the slot commit"
      ~expected:[ "ctree_map.ml"; "heap.ml"; "pmalloc.ml" ]
      (ctree_scenario ~bugs:{ Ctree_map.no_bugs with missing_node_flush = true } 8);
    case ~id:"pmdk-5" ~benchmark:"Hashmap_atomic"
      ~description:"freed block state not flushed before the free-list push"
      ~expected:[ "pmalloc.ml" ]
      (hashmap_atomic_scenario
         ~alloc_bugs:{ Pmalloc.no_bugs with missing_free_flush = true }
         6);
    case ~id:"pmdk-6" ~benchmark:"Hashmap_tx"
      ~description:"transaction data not flushed before the undo log is discarded"
      ~expected:[ "hashmap_tx.ml"; "heap.ml"; "pmalloc.ml" ]
      (hashmap_tx_scenario ~tx_bugs:{ Tx.no_bugs with missing_data_flush = true } 10);
    case ~id:"pmdk-7" ~benchmark:"RBTree"
      ~description:"rotation performed with raw unlogged stores"
      ~expected:[ "rbtree_map.ml" ]
      (rbtree_scenario ~bugs:{ Rbtree_map.nontx_rotate = true } 8);
  ]

let fixed_cases ?(n = 8) () =
  let case = Jaaru.Case.v ~config:(config ()) in
  [
    case ~id:"pmdk-btree-fixed" ~benchmark:"Btree" ~description:"fixed" (btree_scenario n);
    case ~id:"pmdk-ctree-fixed" ~benchmark:"CTree" ~description:"fixed" (ctree_scenario n);
    case ~id:"pmdk-rbtree-fixed" ~benchmark:"RBTree" ~description:"fixed" (rbtree_scenario n);
    case ~id:"pmdk-hashmap-atomic-fixed" ~benchmark:"Hashmap_atomic" ~description:"fixed"
      (hashmap_atomic_scenario n);
    case ~id:"pmdk-hashmap-tx-fixed" ~benchmark:"Hashmap_tx" ~description:"fixed"
      (hashmap_tx_scenario n);
  ]

let skiplist_cases () =
  let bug_config = { (config ()) with Jaaru.Config.stop_at_first_bug = true } in
  [
    Jaaru.Case.v ~id:"pmdk-skiplist-fixed" ~benchmark:"Skiplist" ~description:"fixed"
      ~config:(config ()) (skiplist_scenario 8);
    Jaaru.Case.v ~id:"pmdk-skiplist-1" ~benchmark:"Skiplist"
      ~description:"node not flushed before the level-0 commit"
      ~expected:[ "skiplist_map.ml"; "heap.ml" ] ~config:bug_config
      (skiplist_scenario ~bugs:{ Skiplist_map.no_bugs with missing_node_flush = true } 8);
    Jaaru.Case.v ~id:"pmdk-skiplist-2" ~benchmark:"Skiplist"
      ~description:"index levels published before the data level"
      ~expected:[ "skiplist_map.ml" ] ~config:bug_config
      (skiplist_scenario ~bugs:{ Skiplist_map.no_bugs with index_before_data = true } 8);
  ]

let checksum_cases () =
  (* The checksum log deliberately never flushes appends (§4): the trailing
     CRC lets recovery detect and discard torn or lost records, so the
     missing-flush obligations the analysis passes would report are the
     design, not a bug. *)
  let clog_config =
    {
      (config ()) with
      Jaaru.Config.suppress =
        [ "clog.ml:append seqno"; "clog.ml:append payload"; "clog.ml:append crc" ];
    }
  in
  [
    Jaaru.Case.v ~id:"pmdk-clog-fixed" ~benchmark:"CLog"
      ~description:"checksum-based recovery, correct" ~config:clog_config (clog_scenario 6);
    Jaaru.Case.v ~id:"pmdk-clog-bug" ~benchmark:"CLog" ~description:"recovery skips CRC validation"
      ~expected:[ "clog.ml" ] ~config:clog_config (clog_scenario ~bugs:{ Clog.skip_crc = true } 6);
  ]
