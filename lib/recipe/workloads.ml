type case = Jaaru.Case.t

let keys n = List.init n (fun i -> ((i * 17) mod 97) + 1)

(* Analysis-pass suppressions that hold for every RECIPE workload: the
   allocator's dirty-memory poison is unflushed by design (a constructor
   that persists the object discharges it), and P-CLHT lock words are
   volatile-by-design state living on persistent cache lines (recovery
   resets them). *)
let recipe_suppress =
  [
    "region_alloc.ml:poison";
    (* lock words are volatile-by-design state living on persistent cache
       lines; recovery re-initialises them *)
    "p_clht.ml:unlock";
    "p_clht.ml:lock cas";
    "p_art.ml:unlock";
    "p_art.ml:lock cas";
  ]

let config ?(max_steps = 40_000) () =
  { Jaaru.Config.default with max_steps; suppress = recipe_suppress }

(* --- scenario builders ----------------------------------------------------- *)

let cceh_scenario ?(bugs = Cceh.no_bugs) ?alloc_bugs n =
  let pre ctx =
    let t = Cceh.create_or_open ~bugs ?alloc_bugs ctx in
    List.iter (fun k -> Cceh.insert t k (k * 100)) (keys n)
  in
  let post ctx =
    let t = Cceh.create_or_open ~bugs ?alloc_bugs ctx in
    Cceh.check t;
    List.iter
      (fun k ->
        match Cceh.lookup t k with
        | Some v -> Jaaru.Ctx.check ctx ~label:"workloads.ml:cceh" (v = k * 100) "wrong value"
        | None -> ())
      (keys n)
  in
  Jaaru.Explorer.scenario ~name:"cceh" ~pre ~post

let fast_fair_scenario ?(bugs = Fast_fair.no_bugs) ?alloc_bugs n =
  let pre ctx =
    let t = Fast_fair.create_or_open ~bugs ?alloc_bugs ctx in
    List.iter (fun k -> Fast_fair.insert t k (k * 100)) (keys n)
  in
  let post ctx =
    let t = Fast_fair.create_or_open ~bugs ?alloc_bugs ctx in
    Fast_fair.check t;
    List.iter (fun k -> ignore (Fast_fair.lookup t k)) (keys n)
  in
  Jaaru.Explorer.scenario ~name:"fast_fair" ~pre ~post

let p_art_scenario ?(bugs = P_art.no_bugs) ?alloc_bugs ?(epoch_every = 4) n =
  let pre ctx =
    let t = P_art.create_or_open ~bugs ?alloc_bugs ctx in
    List.iteri
      (fun i k ->
        P_art.insert t k (k * 100);
        if (i + 1) mod epoch_every = 0 then P_art.epoch_end t)
      (keys n);
    P_art.epoch_end t
  in
  let post ctx =
    let t = P_art.create_or_open ~bugs ?alloc_bugs ctx in
    P_art.check t;
    List.iter (fun k -> ignore (P_art.lookup t k)) (keys n);
    (* A recovery-side insert exercises the lock paths (the loop bug). *)
    P_art.insert t 251 77;
    P_art.epoch_end t
  in
  Jaaru.Explorer.scenario ~name:"p_art" ~pre ~post

let p_bwtree_scenario ?(bugs = P_bwtree.no_bugs) ?alloc_bugs n =
  let pre ctx =
    let t = P_bwtree.create_or_open ~bugs ?alloc_bugs ctx in
    List.iter (fun k -> P_bwtree.insert t k (k * 100)) (keys n)
  in
  let post ctx =
    let t = P_bwtree.create_or_open ~bugs ?alloc_bugs ctx in
    P_bwtree.check t;
    List.iter (fun k -> ignore (P_bwtree.lookup t k)) (keys n)
  in
  Jaaru.Explorer.scenario ~name:"p_bwtree" ~pre ~post

let p_clht_scenario ?(bugs = P_clht.no_bugs) ?alloc_bugs ?nbuckets n =
  let pre ctx =
    let t = P_clht.create_or_open ~bugs ?alloc_bugs ?nbuckets ctx in
    List.iter (fun k -> P_clht.insert t k (k * 100)) (keys n)
  in
  let post ctx =
    let t = P_clht.create_or_open ~bugs ?alloc_bugs ?nbuckets ctx in
    P_clht.check t;
    List.iter (fun k -> ignore (P_clht.lookup t k)) (keys n);
    (* Recovery resumes the workload: re-inserting spins on any bucket whose
       crashed lock was never reset. *)
    List.iter (fun k -> P_clht.insert t k (k * 100)) (keys n)
  in
  Jaaru.Explorer.scenario ~name:"p_clht" ~pre ~post

let p_masstree_scenario ?(bugs = P_masstree.no_bugs) ?alloc_bugs n =
  let slices k = (((k / 8) mod 13) + 1, (k mod 8) + 1) in
  let pre ctx =
    let t = P_masstree.create_or_open ~bugs ?alloc_bugs ctx in
    List.iter
      (fun k ->
        let slice0, slice1 = slices k in
        P_masstree.insert t ~slice0 ~slice1 (k * 100))
      (keys n)
  in
  let post ctx =
    let t = P_masstree.create_or_open ~bugs ?alloc_bugs ctx in
    P_masstree.check t;
    List.iter
      (fun k ->
        let slice0, slice1 = slices k in
        ignore (P_masstree.lookup t ~slice0 ~slice1))
      (keys n)
  in
  Jaaru.Explorer.scenario ~name:"p_masstree" ~pre ~post

let fixed_scenario benchmark n =
  match benchmark with
  | "CCEH" -> cceh_scenario n
  | "FAST_FAIR" -> fast_fair_scenario n
  | "P-ART" -> p_art_scenario n
  | "P-BwTree" -> p_bwtree_scenario n
  | "P-CLHT" ->
      (* The paper's P-CLHT has the largest eager state count despite the
         smallest execution count: its constructor initialises a big bucket
         array and flushes it only once. A 32-line table reproduces that
         shape. *)
      p_clht_scenario ~nbuckets:32 n
  | "P-Masstree" -> p_masstree_scenario n
  | other -> invalid_arg ("Workloads.fixed_scenario: unknown benchmark " ^ other)

(* --- case tables ------------------------------------------------------------ *)

(* Every seeded bug must surface as one of the paper's visible
   manifestations (Fig. 15): a segfault-like illegal access, an assertion
   failure, or getting stuck in a loop. Exact locations vary with the
   explored interleaving, exactly as the paper's appendix notes. *)
let structure_damage = [ "Illegal memory access"; "Assertion failure"; "infinite loop" ]

let fig13_cases () =
  let sd = Some structure_damage in
  (* Bug hunts stop at the first manifestation (as the paper's bug runs do);
     a missing flush multiplies read-from candidates, so exhausting the
     buggy state space would take orders of magnitude longer than finding
     the crash. *)
  let mk = Jaaru.Case.v ~config:{ (config ()) with Jaaru.Config.stop_at_first_bug = true } in
  [
    mk ~id:"CCEH-1" ~benchmark:"CCEH" ~description:"Missing flush in CCEH constructor (directory)"
      ?expected:sd
      ~lint_roots:[ "cceh.ml:ctor dir0"; "cceh.ml:ctor dir1" ]
      (cceh_scenario ~bugs:{ Cceh.no_bugs with ctor_skip_dir_flush = true } 6);
    mk ~id:"CCEH-2" ~benchmark:"CCEH" ~description:"Missing flush in CCEH constructor (segments)"
      ?expected:sd
      ~lint_roots:[ "cceh.ml:seg init depth"; "cceh.ml:seg init key"; "cceh.ml:seg init value" ]
      (cceh_scenario ~bugs:{ Cceh.no_bugs with ctor_skip_segment_flush = true } 6);
    mk ~id:"CCEH-3" ~benchmark:"CCEH" ~description:"Missing flush in CCEH constructor (metadata)"
      ?expected:sd
      ~lint_roots:[ "cceh.ml:ctor depth"; "cceh.ml:ctor dirptr" ]
      (cceh_scenario ~bugs:{ Cceh.no_bugs with ctor_skip_meta_flush = true } 6);
    mk ~id:"FAST_FAIR-1" ~benchmark:"FAST_FAIR" ~description:"Missing flush in header constructor"
      ?expected:sd
      ~lint_roots:
        [ "fast_fair.ml:init kind"; "fast_fair.ml:init sibling"; "fast_fair.ml:init high" ]
      (fast_fair_scenario ~bugs:{ Fast_fair.no_bugs with ctor_skip_header_flush = true } 8);
    mk ~id:"FAST_FAIR-2" ~benchmark:"FAST_FAIR" ~description:"Missing flush in entry constructor"
      ?expected:sd
      ~lint_roots:[ "fast_fair.ml:entry init key"; "fast_fair.ml:entry init payload" ]
      (fast_fair_scenario ~bugs:{ Fast_fair.no_bugs with missing_entry_flush = true } 8);
    mk ~id:"FAST_FAIR-3" ~benchmark:"FAST_FAIR" ~description:"Missing flush in btree constructor"
      ?expected:sd ~lint_roots:[ "fast_fair.ml:set root" ]
      (fast_fair_scenario ~bugs:{ Fast_fair.no_bugs with ctor_skip_root_flush = true } 6);
    mk ~id:"P-ART-1" ~benchmark:"P-ART"
      ~description:"Use of non-persistent data structure in Epoch" ?expected:sd
      (p_art_scenario ~bugs:{ P_art.no_bugs with epoch_volatile_flush = true } 8);
    mk ~id:"P-ART-2" ~benchmark:"P-ART" ~description:"Missing flush in Tree constructor"
      ?expected:sd
      (p_art_scenario ~bugs:{ P_art.no_bugs with ctor_skip_root_flush = true } 6);
    mk ~id:"P-ART-3" ~benchmark:"P-ART"
      ~description:"Use of non-persistent data structure for recovery" ?expected:sd
      (p_art_scenario ~bugs:{ P_art.no_bugs with volatile_lock_recovery = true } 6);
    mk ~id:"P-BwTree-1" ~benchmark:"P-BwTree"
      ~description:"GC crash leaves data structure in inconsistent state" ?expected:sd
      (p_bwtree_scenario ~bugs:{ P_bwtree.no_bugs with gc_nonatomic = true } 8);
    mk ~id:"P-BwTree-2" ~benchmark:"P-BwTree" ~description:"Missing flush of GC metadata pointer"
      ?expected:sd
      (p_bwtree_scenario ~bugs:{ P_bwtree.no_bugs with missing_gc_head_flush = true } 14);
    mk ~id:"P-BwTree-3" ~benchmark:"P-BwTree" ~description:"Missing flush of GC metadata"
      ?expected:sd
      (p_bwtree_scenario ~bugs:{ P_bwtree.no_bugs with missing_gc_link_flush = true } 14);
    mk ~id:"P-BwTree-4" ~benchmark:"P-BwTree"
      ~description:"Missing flush in AllocationMeta constructor" ?expected:sd
      (p_bwtree_scenario
         ~alloc_bugs:{ Region_alloc.no_bugs with missing_meta_flush = true }
         6);
    mk ~id:"P-BwTree-5" ~benchmark:"P-BwTree" ~description:"Missing flush in BwTree constructor"
      ?expected:sd
      (p_bwtree_scenario ~bugs:{ P_bwtree.no_bugs with ctor_skip_flush = true } 6);
    mk ~id:"P-CLHT-1" ~benchmark:"P-CLHT" ~description:"Missing flush in clht constructor"
      ?expected:sd ~lint_roots:[ "p_clht.ml:meta ht" ]
      (p_clht_scenario ~bugs:{ P_clht.no_bugs with ctor_skip_meta_flush = true } 4);
    mk ~id:"P-CLHT-2" ~benchmark:"P-CLHT" ~description:"Missing flush for hashtable object"
      ?expected:sd ~lint_roots:[ "p_clht.ml:ht nbuckets"; "p_clht.ml:ht table" ]
      (p_clht_scenario ~bugs:{ P_clht.no_bugs with skip_ht_flush = true } 4);
    mk ~id:"P-CLHT-3" ~benchmark:"P-CLHT"
      ~description:"Missing lock reset in recovery (volatile lock state)" ?expected:sd
      (p_clht_scenario ~bugs:{ P_clht.no_bugs with skip_lock_reset = true } 4);
    mk ~id:"P-MassTree-1" ~benchmark:"P-Masstree"
      ~description:"Flushed referenced object instead of pointer" ?expected:sd
      (p_masstree_scenario ~bugs:{ P_masstree.flush_object_not_pointer = true } 6);
  ]

(* Workload sizes chosen so the relative failure-point counts follow the
   paper's Fig. 14 ordering (CCEH largest, P-CLHT / P-Masstree smallest). *)
let fixed_sizes =
  [
    ("CCEH", 24);
    ("FAST_FAIR", 10);
    ("P-ART", 8);
    ("P-BwTree", 7);
    ("P-CLHT", 3);
    ("P-Masstree", 4);
  ]

let fixed_cases () =
  List.map
    (fun (benchmark, n) ->
      Jaaru.Case.v ~id:(benchmark ^ "-fixed") ~benchmark ~description:"fixed" ~config:(config ())
        (fixed_scenario benchmark n))
    fixed_sizes

(* Two threads hammer the same P-CLHT concurrently. The correct variant
   relies on the bucket locks; the racy variant bypasses them with plain
   slot writes, so some schedules overwrite a neighbour's committed slot. *)
let concurrent_scenario ?(ks0 = [ 3; 5; 7 ]) ?(ks1 = [ 11; 13; 17 ]) ~racy () =
  let pre ctx =
    let t = P_clht.create_or_open ~nbuckets:2 ctx in
    if racy then begin
      (* Unsynchronised writers sharing one slot index: a lost update. *)
      let region = Jaaru.Ctx.region ctx in
      let cell = Pmem.Region.limit region - 64 in
      Jaaru.Ctx.parallel ctx
        [
          (fun ctx ->
            let v = Jaaru.Ctx.load64 ctx ~label:"racy read 0" cell in
            Jaaru.Ctx.store64 ctx ~label:"racy write 0" cell (v + 1);
            Jaaru.Ctx.mfence ctx ~label:"racy fence 0" ());
          (fun ctx ->
            let v = Jaaru.Ctx.load64 ctx ~label:"racy read 1" cell in
            Jaaru.Ctx.store64 ctx ~label:"racy write 1" cell (v + 1);
            Jaaru.Ctx.mfence ctx ~label:"racy fence 1" ());
        ];
      Jaaru.Ctx.mfence ctx ~label:"join" ();
      Jaaru.Ctx.check ctx ~label:"workloads.ml:race"
        (Jaaru.Ctx.load64 ctx ~label:"final" cell = 2)
        "an unsynchronised increment was lost"
    end
    else
      Jaaru.Ctx.parallel ctx
        [
          (fun _ -> List.iter (fun k -> P_clht.insert t k (k * 100)) ks0);
          (fun _ -> List.iter (fun k -> P_clht.insert t k (k * 100)) ks1);
        ]
  in
  let post ctx =
    let t = P_clht.create_or_open ~nbuckets:2 ctx in
    P_clht.check t;
    List.iter (fun k -> ignore (P_clht.lookup t k)) (ks0 @ ks1)
  in
  Jaaru.Explorer.scenario ~name:"p_clht_concurrent" ~pre ~post

let concurrent_cases () =
  [
    Jaaru.Case.v ~id:"P-CLHT-concurrent" ~benchmark:"P-CLHT"
      ~description:"two lock-protected writer threads"
      ~config:{ (config ()) with Jaaru.Config.evict_policy = Jaaru.Config.Buffered }
      (concurrent_scenario ~racy:false ());
    Jaaru.Case.v ~id:"P-CLHT-racy" ~benchmark:"P-CLHT"
      ~description:"unsynchronised concurrent increment (schedule-dependent)"
      ~expected:[ "workloads.ml:race" ]
      ~config:
        {
          (config ()) with
          Jaaru.Config.evict_policy = Jaaru.Config.Buffered;
          Jaaru.Config.stop_at_first_bug = true;
        }
      (concurrent_scenario ~racy:true ());
  ]
