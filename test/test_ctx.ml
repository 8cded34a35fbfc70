(* Checker-context behaviour: oracles, RMWs, threads, eviction policies,
   multi-failure scenarios. *)
open Jaaru

let no_failures = { Config.default with Config.max_failures = 0 }
let base = 0x1000

let run_one ?(config = no_failures) body =
  Explorer.run ~config (Explorer.scenario ~name:"t" ~pre:body ~post:(fun _ -> ()))

let kind_of o =
  match o.Explorer.bugs with [] -> None | b :: _ -> Some b.Bug.kind

(* --- bug oracles -------------------------------------------------------- *)

let test_illegal_store_low () =
  match kind_of (run_one (fun ctx -> Ctx.store64 ctx 0x10 1)) with
  | Some (Bug.Illegal_access { op = "store"; addr = 0x10; width = 8 }) -> ()
  | _ -> Alcotest.fail "expected illegal store"

let test_illegal_load_high () =
  let config = no_failures in
  let limit = config.Config.region_base + config.Config.region_size in
  match kind_of (run_one (fun ctx -> ignore (Ctx.load8 ctx limit))) with
  | Some (Bug.Illegal_access { op = "load"; width = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected illegal load"

let test_access_straddling_limit () =
  let config = no_failures in
  let limit = config.Config.region_base + config.Config.region_size in
  match kind_of (run_one (fun ctx -> Ctx.store64 ctx (limit - 4) 1)) with
  | Some (Bug.Illegal_access _) -> ()
  | _ -> Alcotest.fail "straddling access must be illegal"

let test_infinite_loop_detected () =
  let config = { no_failures with Config.max_steps = 1000 } in
  match kind_of (run_one ~config (fun ctx ->
      while true do Ctx.progress ctx () done)) with
  | Some (Bug.Infinite_loop _) -> ()
  | _ -> Alcotest.fail "expected loop detection"

let test_program_exception_captured () =
  match kind_of (run_one (fun _ -> failwith "boom")) with
  | Some (Bug.Program_exception _) -> ()
  | _ -> Alcotest.fail "expected captured exception"

let test_assertions () =
  (match kind_of (run_one (fun ctx -> Ctx.check ctx false "nope")) with
  | Some (Bug.Assertion_failure "nope") -> ()
  | _ -> Alcotest.fail "expected assertion");
  match kind_of (run_one (fun ctx -> Ctx.check ctx true "ok")) with
  | None -> ()
  | Some _ -> Alcotest.fail "true assertion must not fire"

(* An address near [max_int] makes [addr + width] wrap negative; the region
   check must still see the access as wild, for stores, loads and flushes. *)
let test_wild_access_near_max_int () =
  let wild = max_int - 2 in
  List.iter
    (fun (op, body) ->
      match kind_of (run_one body) with
      | Some (Bug.Illegal_access { op = o; addr; _ }) when o = op && addr = wild -> ()
      | _ -> Alcotest.failf "wild %s at max_int - 2 was accepted" op)
    [
      ("store", fun ctx -> Ctx.store64 ctx wild 5);
      ("load", fun ctx -> ignore (Ctx.load64 ctx wild));
      ("flush", fun ctx -> Ctx.clflush ctx wild 8);
    ]

(* --- loads, stores, widths ------------------------------------------------ *)

let test_width_roundtrips () =
  let o =
    run_one (fun ctx ->
        Ctx.store64 ctx base 0x0102030405060708;
        Ctx.check ctx (Ctx.load64 ctx base = 0x0102030405060708) "64";
        Ctx.check ctx (Ctx.load32 ctx base = 0x05060708) "low 32";
        Ctx.check ctx (Ctx.load32 ctx (base + 4) = 0x01020304) "high 32";
        Ctx.check ctx (Ctx.load16 ctx (base + 2) = 0x0506) "mid 16";
        Ctx.check ctx (Ctx.load8 ctx (base + 7) = 0x01) "top byte";
        Ctx.store8 ctx (base + 3) 0xff;
        Ctx.check ctx (Ctx.load64 ctx base = 0x01020304ff060708) "byte patch";
        Ctx.store16 ctx (base + 62) 0xabcd;
        Ctx.check ctx (Ctx.load16 ctx (base + 62) = 0xabcd) "line straddle")
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

let test_initial_zero () =
  let o = run_one (fun ctx -> Ctx.check ctx (Ctx.load64 ctx base = 0) "initial") in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

let test_memset_memcpy () =
  let o =
    run_one (fun ctx ->
        Ctx.memset ctx base 0xab 20;
        Ctx.check ctx (Ctx.load8 ctx base = 0xab) "first byte";
        Ctx.check ctx (Ctx.load8 ctx (base + 19) = 0xab) "last byte";
        Ctx.check ctx (Ctx.load8 ctx (base + 20) = 0) "one past untouched";
        Ctx.check ctx (Ctx.load64 ctx (base + 8) = -0x5454545454545455) "full word pattern" |> ignore;
        Ctx.memcpy ctx ~dst:(base + 64) ~src:base 20;
        Ctx.check ctx (Ctx.load8 ctx (base + 64) = 0xab) "copied first";
        Ctx.check ctx (Ctx.load8 ctx (base + 83) = 0xab) "copied last";
        Ctx.check ctx (Ctx.load8 ctx (base + 84) = 0) "copy bounded")
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

let test_memcpy_persist_durable () =
  (* After memcpy_persist the destination is pinned: recovery at the final
     crash must observe the copied bytes. *)
  let behaviors =
    let config = { Config.default with Config.max_failures = 0 } in
    Yat.Eager.jaaru_behaviors ~config
      ~pre:(fun ctx ->
        Ctx.store64 ctx ~label:"src" base 0x1122334455667788;
        Ctx.memcpy_persist ctx ~dst:(base + 64) ~src:base 8;
        Ctx.crash ctx)
      ~post:(fun ctx -> Printf.sprintf "%x" (Ctx.load64 ctx ~label:"r" (base + 64)))
      ()
  in
  Alcotest.(check (list string)) "destination durable" [ "1122334455667788" ] behaviors

let test_crash_inside_parallel () =
  (* Failure points fire inside fibers; each thread's committed line is
     independently durable. *)
  let pre ctx =
    Ctx.parallel ctx
      [
        (fun ctx ->
          Ctx.store64 ctx ~label:"t0 w" base 1;
          Ctx.clflush ctx ~label:"t0 f" base 8;
          Ctx.sfence ctx ~label:"t0 s" ());
        (fun ctx ->
          Ctx.store64 ctx ~label:"t1 w" (base + 64) 2;
          Ctx.clflush ctx ~label:"t1 f" (base + 64) 8;
          Ctx.sfence ctx ~label:"t1 s" ());
      ]
  in
  let seen = ref [] in
  let post ctx =
    let a = Ctx.load64 ctx ~label:"r0" base in
    let b = Ctx.load64 ctx ~label:"r1" (base + 64) in
    if not (List.mem (a, b) !seen) then seen := (a, b) :: !seen
  in
  let scn = Explorer.scenario ~name:"par-crash" ~pre ~post in
  let o = Explorer.run scn in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o);
  Alcotest.(check bool) "exhausted" true o.Explorer.stats.Stats.exhausted;
  (* Under the fixed round-robin schedule thread 0's flush precedes thread
     1's store, so (0,2) is unreachable — Jaaru explores crash states
     exhaustively but schedules are fixed per run (paper §4, Discussion). *)
  List.iter
    (fun st -> Alcotest.(check bool) "round-robin state" true (List.mem st !seen))
    [ (0, 0); (1, 0); (1, 2) ];
  Alcotest.(check bool) "(0,2) needs another schedule" false (List.mem (0, 2) !seen);
  (* Schedule fuzzing reaches the fourth combination. *)
  List.iter
    (fun seed ->
      let config = { Config.default with Config.schedule_seed = Some seed } in
      ignore (Explorer.run ~config scn))
    (List.init 10 succ);
  Alcotest.(check bool) "(0,2) found by fuzzing" true (List.mem (0, 2) !seen)

(* --- locked RMW ------------------------------------------------------------ *)

let test_rmw_semantics () =
  let o =
    run_one (fun ctx ->
        Ctx.check ctx (Ctx.cas64 ctx base ~expected:0 ~desired:5) "cas on zero";
        Ctx.check ctx (not (Ctx.cas64 ctx base ~expected:0 ~desired:9)) "cas fails";
        Ctx.check ctx (Ctx.load64 ctx base = 5) "cas stored";
        Ctx.check ctx (Ctx.xchg64 ctx base 7 = 5) "xchg returns old";
        Ctx.check ctx (Ctx.fetch_add64 ctx base 10 = 7) "faa returns old";
        Ctx.check ctx (Ctx.load64 ctx base = 17) "faa added")
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

(* --- store-to-load forwarding under Buffered eviction -------------------------- *)

(* Without failures or threads nothing drains a Buffered store buffer but
   [mfence], so these loads forward from buffered stores. *)
let buffered = { no_failures with Config.evict_policy = Config.Buffered }

let check_buffered body =
  let o = run_one ~config:buffered body in
  match o.Explorer.bugs with
  | [] -> ()
  | b :: _ -> Alcotest.failf "%a" Bug.pp b

let test_sb_bypass_wins () =
  (* The buffered store shadows this execution's own store in the cache. *)
  check_buffered (fun ctx ->
      Ctx.store64 ctx base 1;
      Ctx.mfence ctx ();
      Ctx.store64 ctx base 7;
      Ctx.check ctx (Ctx.load64 ctx base = 7) "store buffer bypass")

let test_merged_fallback () =
  (* The newest overlapping store covers only two bytes: the load merges it
     byte-wise with the older buffered word. *)
  check_buffered (fun ctx ->
      Ctx.store64 ctx base 0x0102030405060708;
      Ctx.store16 ctx (base + 3) 0xabcd;
      Ctx.check ctx (Ctx.load64 ctx base = 0x010203abcd060708) "merged";
      Ctx.check ctx (Ctx.load16 ctx (base + 3) = 0xabcd) "covered narrow";
      Ctx.check ctx (Ctx.load32 ctx (base + 2) = 0x03abcd06) "straddles both";
      Ctx.check ctx (Ctx.load16 ctx (base + 4) = 0x03ab) "overhangs the narrow store";
      Ctx.mfence ctx ();
      Ctx.check ctx (Ctx.load64 ctx base = 0x010203abcd060708) "merged after mfence")

let test_masked_store32 () =
  (* Bits above the store's width never reach a load, buffered or drained. *)
  check_buffered (fun ctx ->
      Ctx.store32 ctx base 0x7_1234_5678;
      Ctx.store32 ctx (base + 8) (-2);
      Ctx.check ctx (Ctx.load32 ctx base = 0x12345678) "wide value, buffered";
      Ctx.check ctx (Ctx.load32 ctx (base + 8) = 0xfffffffe) "negative, buffered";
      Ctx.check ctx (Ctx.load64 ctx base = 0x12345678) "upper half untouched, buffered";
      Ctx.mfence ctx ();
      Ctx.check ctx (Ctx.load32 ctx base = 0x12345678) "wide value, drained";
      Ctx.check ctx (Ctx.load32 ctx (base + 8) = 0xfffffffe) "negative, drained";
      Ctx.check ctx (Ctx.load64 ctx base = 0x12345678) "upper half untouched, drained")

let test_load8_inside_store64 () =
  check_buffered (fun ctx ->
      Ctx.store64 ctx base 0x0102030405060708;
      Ctx.check ctx (Ctx.load8 ctx (base + 5) = 0x03) "byte 5";
      Ctx.check ctx (Ctx.load8 ctx (base + 7) = 0x01) "top byte";
      Ctx.check ctx (Ctx.load16 ctx (base + 6) = 0x0102) "top half-word";
      Ctx.store64 ctx (base + 8) (-1);
      Ctx.check ctx (Ctx.load64 ctx (base + 8) = -1) "negative word";
      Ctx.check ctx (Ctx.load8 ctx (base + 15) = 0x7f) "63-bit top byte")

(* --- access widths ---------------------------------------------------------- *)

(* A width outside [1, max_width] is rejected before the access executes,
   under either eviction policy: nothing reaches the store buffer, so later
   loads and fences see only the valid accesses. *)
let test_width_rejected policy () =
  let config = { no_failures with Config.evict_policy = policy } in
  let raised = ref [] in
  let attempt f =
    match f () with
    | () -> raised := "accepted" :: !raised
    | exception Invalid_argument m -> raised := m :: !raised
  in
  let o =
    run_one ~config (fun ctx ->
        List.iter
          (fun width ->
            attempt (fun () -> Ctx.store ctx ~width base 5);
            attempt (fun () -> ignore (Ctx.load ctx ~width base)))
          [ 0; 9; -1 ];
        Ctx.check ctx (Ctx.load64 ctx base = 0) "a rejected store forwards nothing";
        Ctx.store ctx ~width:8 (base + 8) 7;
        Ctx.mfence ctx ();
        Ctx.check ctx (Ctx.load64 ctx base = 0) "a rejected store never reaches the cache";
        Ctx.check ctx (Ctx.load ctx ~width:8 (base + 8) = 7) "full width still accepted")
  in
  (match o.Explorer.bugs with [] -> () | b :: _ -> Alcotest.failf "%a" Bug.pp b);
  Alcotest.(check (list string))
    "every bad width rejected"
    [
      "Ctx.store: width 0 not in [1, 8]";
      "Ctx.load: width 0 not in [1, 8]";
      "Ctx.store: width 9 not in [1, 8]";
      "Ctx.load: width 9 not in [1, 8]";
      "Ctx.store: width -1 not in [1, 8]";
      "Ctx.load: width -1 not in [1, 8]";
    ]
    (List.rev !raised)

(* A negative flush size is rejected like a negative [memset] length, for
   every flush kind; size 0 flushes the one line holding the address. *)
let test_negative_flush_size_rejected () =
  let raised = ref [] in
  let o =
    run_one (fun ctx ->
        List.iter
          (fun flush ->
            match flush ctx base (-1) with
            | () -> raised := "accepted" :: !raised
            | exception Invalid_argument m -> raised := m :: !raised)
          [
            (fun ctx a n -> Ctx.clflush ctx a n);
            (fun ctx a n -> Ctx.clflushopt ctx a n);
            (fun ctx a n -> Ctx.clwb ctx a n);
          ];
        Ctx.clflush ctx base 0)
  in
  (match o.Explorer.bugs with [] -> () | b :: _ -> Alcotest.failf "%a" Bug.pp b);
  Alcotest.(check (list string))
    "every negative size rejected"
    [
      "Ctx.clflush: negative size -1";
      "Ctx.clflushopt: negative size -1";
      "Ctx.clwb: negative size -1";
    ]
    (List.rev !raised);
  Alcotest.(check int) "size 0 flushes one line" 1 o.Explorer.stats.Stats.flushes

(* --- threads ---------------------------------------------------------------- *)

let test_parallel_tso_visibility () =
  (* Buffered policy: buffered stores are invisible to the sibling thread
     but visible to their own thread via bypass. *)
  let config = { no_failures with Config.evict_policy = Config.Buffered } in
  let o =
    run_one ~config (fun ctx ->
        Ctx.parallel ctx
          [
            (fun ctx ->
              Ctx.store64 ctx ~label:"t0 w" base 1;
              Ctx.check ctx (Ctx.load64 ctx ~label:"t0 own" base = 1) "own bypass");
            (fun ctx ->
              Ctx.store64 ctx ~label:"t1 w" (base + 64) 2;
              Ctx.check ctx (Ctx.load64 ctx ~label:"t1 own" (base + 64) = 2) "own bypass t1");
          ])
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

let test_parallel_fence_publishes () =
  let config = { no_failures with Config.evict_policy = Config.Buffered } in
  let saw = ref (-1) in
  let o =
    run_one ~config (fun ctx ->
        Ctx.parallel ctx
          [
            (fun ctx ->
              Ctx.store64 ctx ~label:"w" base 42;
              Ctx.mfence ctx ~label:"publish" ());
            (fun ctx ->
              (* Round-robin guarantees the fence ran before this load's turn
                 comes a second time. *)
              ignore (Ctx.load64 ctx ~label:"first" base);
              saw := Ctx.load64 ctx ~label:"second" base);
          ])
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o);
  Alcotest.(check int) "published" 42 !saw

let test_parallel_exception_unwinds () =
  match kind_of (run_one (fun ctx ->
      Ctx.parallel ctx [ (fun ctx -> Ctx.abort ctx "in fiber") ])) with
  | Some (Bug.Assertion_failure "in fiber") -> ()
  | _ -> Alcotest.fail "fiber bug must surface"

let test_many_yields_stack_safe () =
  let o =
    run_one (fun ctx ->
        let config = Ctx.config ctx in
        ignore config;
        Ctx.parallel ctx
          [
            (fun _ -> for _ = 1 to 50_000 do Scheduler.yield () done);
            (fun _ -> for _ = 1 to 50_000 do Scheduler.yield () done);
          ])
  in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o)

(* --- eviction policies and crashes ------------------------------------------- *)

let test_buffered_store_lost_at_crash () =
  (* Under the Buffered policy a store still in the store buffer at the
     failure is gone: recovery can only read 0. Under Eager it reached the
     cache, so recovery may read either value. *)
  let behaviors policy =
    let config = { Config.default with Config.evict_policy = policy } in
    let pre ctx =
      Ctx.store64 ctx ~label:"w" base 7;
      (* The flush provides the failure point; the store may or may not have
         drained by then. *)
      Ctx.clflush ctx ~label:"fl other" (base + 64) 8
    in
    let post ctx = Printf.sprintf "x=%d" (Ctx.load64 ctx ~label:"r" base) in
    Yat.Eager.jaaru_behaviors ~config ~pre ~post ()
  in
  Alcotest.(check (list string)) "eager policy sees both" [ "x=0"; "x=7" ]
    (behaviors Config.Eager);
  (* Buffered: the drain choice at the crash explores both 0-drained and
     1-drained prefixes, so both behaviours appear here too — but through
     the Drain decision, not the writeback interval. *)
  Alcotest.(check (list string)) "buffered sees both via drain choice" [ "x=0"; "x=7" ]
    (behaviors Config.Buffered)

(* The end-of-execution drain runs only where a reader exists. The failure-
   free original execution's record is read for the statistics, so its
   buffered stores and clflushopts must all reach it: 8 + 4 bytes, two line
   flushes, though nothing fences. *)
let test_original_execution_drains () =
  let config = { buffered with Config.max_failures = 1 } in
  let pre ctx =
    Ctx.store64 ctx base 1;
    Ctx.store32 ctx (base + 64) 2;
    Ctx.clflushopt ctx base 8;
    Ctx.clflushopt ctx (base + 64) 4
  in
  let o = Explorer.run ~config (Explorer.scenario ~name:"drain" ~pre ~post:(fun _ -> ())) in
  Alcotest.(check int) "stores drained" 12 o.Explorer.stats.Stats.stores;
  Alcotest.(check int) "flushes drained" 2 o.Explorer.stats.Stats.flushes

(* After a crash the top record is discarded at the next replay, so the
   drain is skipped: [finish_execution] leaves it exactly as recovery left
   it, with the recovery's store and clflushopt still buffered. *)
let test_no_drain_after_crash () =
  let config = { buffered with Config.max_failures = 1 } in
  let choice = Choice.create () in
  Choice.begin_replay choice;
  let ctx = Ctx.create ~config ~choice () in
  (try
     Ctx.store64 ctx base 1;
     Ctx.crash ctx
   with Ctx.Power_failure -> ());
  Ctx.after_crash ctx;
  Ctx.store64 ctx (base + 8) 7;
  Ctx.clflushopt ctx (base + 8) 8;
  let observe () =
    let top = Exec.Exec_stack.top (Ctx.exec_stack ctx) in
    ( Exec.Exec_record.store_count top,
      Exec.Exec_record.flush_count top,
      List.sort compare (Exec.Exec_record.written_addrs top) )
  in
  let before = observe () in
  Alcotest.(check (triple int int (list int))) "recovery's effects still buffered" (0, 0, [])
    before;
  Alcotest.(check int) "the store is in the buffer" 7 (Ctx.load64 ctx (base + 8));
  Ctx.finish_execution ctx;
  Alcotest.(check (triple int int (list int))) "no drain after a crash" before (observe ())

let test_multi_failure_depth () =
  (* With max_failures = 2 the recovery itself crashes and recovers. *)
  let config = { Config.default with Config.max_failures = 2 } in
  let max_depth = ref 0 in
  let pre ctx =
    Ctx.store64 ctx ~label:"w" base 1;
    Ctx.clflush ctx ~label:"fl" base 8
  in
  let post ctx =
    if Ctx.failures ctx > !max_depth then max_depth := Ctx.failures ctx;
    let v = Ctx.load64 ctx ~label:"r" base in
    Ctx.store64 ctx ~label:"w2" base (v + 10);
    Ctx.clflush ctx ~label:"fl2" base 8
  in
  let o = Explorer.run ~config (Explorer.scenario ~name:"mf" ~pre ~post) in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o);
  Alcotest.(check int) "second failure explored" 2 !max_depth;
  Alcotest.(check bool) "exhausted" true o.Explorer.stats.Stats.exhausted

(* A recovery that crashes on every run: the explicit crash that would take
   the run a second failure past [max_failures] is rejected, so the replay
   ends in a report instead of recovering forever. *)
let test_crash_in_recovery_ends () =
  let config = { Config.default with Config.max_failures = 1; wall_budget = Some 3. } in
  let pre ctx = Ctx.store64 ctx ~label:"w" base 1 in
  let post ctx =
    ignore (Ctx.load64 ctx ~label:"r" base);
    Ctx.crash ctx
  in
  let o = Explorer.run ~config (Explorer.scenario ~name:"crash-in-recovery" ~pre ~post) in
  (match kind_of o with
  | Some (Bug.Program_exception msg) ->
      Alcotest.(check string) "rejected crash"
        "Invalid_argument(\"Ctx.crash: 2 failures already, max_failures is 1\")" msg
  | _ -> Alcotest.fail "expected the crash to be rejected");
  Alcotest.(check bool) "exhausted" true o.Explorer.stats.Stats.exhausted

let test_multi_failure_reads_previous_recovery () =
  (* A value written by the first recovery must be readable by the second
     when it was flushed, exercising ReadPreFailure across three
     executions. *)
  let config = { Config.default with Config.max_failures = 2 } in
  let ok = ref true in
  let pre ctx =
    Ctx.store64 ctx ~label:"gen0" base 1;
    Ctx.clflush ctx ~label:"fl0" base 8
  in
  let post ctx =
    let v = Ctx.load64 ctx ~label:"r" base in
    (* Every observable value is the initial zero or odd (1, 3, 7, ...):
       each generation stores 2v+1. *)
    if not (v = 0 || v land 1 = 1) then ok := false;
    Ctx.store64 ctx ~label:"bump" base ((2 * v) + 1);
    Ctx.clflush ctx ~label:"fl" base 8
  in
  let o = Explorer.run ~config (Explorer.scenario ~name:"mf2" ~pre ~post) in
  Alcotest.(check bool) "clean" false (Explorer.found_bug o);
  Alcotest.(check bool) "all observed values odd" true !ok

(* A recovery load whose bytes each have one read-from candidate allocates
   nothing: the line view is reused, each byte's walk and refinement run in
   place, and no read inserts a line into a record (a growing line table
   would allocate). The loads sweep every line of the region, most of which
   no execution wrote, and straddle line boundaries; loads of every width
   inside one store, aligned or not, take the word path. The trace ring is
   off, as its load events are the only allocation left on this path. *)
let test_single_candidate_loads_allocate_nothing () =
  let config = { Config.default with Config.max_failures = 2; trace_depth = 0 } in
  let choice = Choice.create () in
  Choice.begin_replay choice;
  let ctx = Ctx.create ~config ~choice () in
  let crash () =
    (try Ctx.crash ctx with Ctx.Power_failure -> ());
    Ctx.after_crash ctx
  in
  Ctx.store64 ctx (base + 60) 0x1122334455667788;
  Ctx.clflush ctx (base + 60) 8;
  crash ();
  Ctx.store64 ctx (base + 192) 7;
  Ctx.store64 ctx (base + 203) 0x0102030405060708;
  Ctx.clflush ctx (base + 192) 64;
  crash ();
  Alcotest.(check int) "two failures" 3 (Exec.Exec_stack.depth (Ctx.exec_stack ctx));
  Alcotest.(check int) "straddling value of the first execution" 0x1122334455667788
    (Ctx.load64 ctx (base + 60));
  Alcotest.(check int) "value of the second execution" 7 (Ctx.load64 ctx (base + 192));
  Alcotest.(check int) "unaligned word" 0x0102030405060708 (Ctx.load64 ctx (base + 203));
  Alcotest.(check int) "byte inside a word" 0x06 (Ctx.load8 ctx (base + 205));
  Alcotest.(check int) "half inside a word" 0x0607 (Ctx.load16 ctx (base + 204));
  Alcotest.(check int) "unaligned int inside a word" 0x03040506 (Ctx.load32 ctx (base + 205));
  Alcotest.(check int) "int inside a word" 0x7 (Ctx.load32 ctx (base + 192));
  let lines = (config.Config.region_size / Pmem.Addr.cache_line_size) - 1 in
  let loads = 10_000 in
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = measure (fun () -> ()) in
  let words =
    measure (fun () ->
        for i = 0 to loads - 1 do
          ignore (Ctx.load64 ctx (base + (64 * (i mod lines)) + 60));
          ignore (Ctx.load8 ctx (base + 205));
          ignore (Ctx.load16 ctx (base + 204));
          ignore (Ctx.load32 ctx (base + 205));
          ignore (Ctx.load64 ctx (base + 203));
          ignore (Ctx.load32 ctx (base + (64 * (i mod lines)) + 3))
        done)
  in
  Alcotest.(check (float 0.)) "minor words over 10,000 loads" baseline words

(* With the trace ring off and no analysis, nothing reads a load event, so
   a load whose bytes all forward from one buffered store allocates nothing,
   however deep the buffer: the forwarding table starts the scan at the
   store, 16 entries back from the newest. *)
let test_deep_forwarded_load_allocates_nothing () =
  let config = { buffered with Config.trace_depth = 0 } in
  let choice = Choice.create () in
  Choice.begin_replay choice;
  let ctx = Ctx.create ~config ~choice () in
  for i = 0 to 47 do
    Ctx.store64 ctx (base + (8 * i)) (i + 1)
  done;
  let target = base + (8 * 32) in
  Alcotest.(check int) "forwarded value" 33 (Ctx.load64 ctx target);
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = measure (fun () -> ()) in
  let words =
    measure (fun () ->
        for _ = 1 to 10_000 do
          ignore (Ctx.load64 ctx target)
        done)
  in
  Alcotest.(check (float 0.)) "minor words over 10,000 loads" baseline words

(* --- misc ---------------------------------------------------------------------- *)

let test_trace_recorded () =
  let config = { Config.default with Config.stop_at_first_bug = true } in
  let pre ctx =
    Ctx.store64 ctx ~label:"the store" base 1;
    Ctx.clflush ctx ~label:"the flush" base 8
  in
  let post ctx = ignore (Ctx.load64 ctx ~label:"the load" 0x0) in
  let o = Explorer.run ~config (Explorer.scenario ~name:"tr" ~pre ~post) in
  match o.Explorer.bugs with
  | [ b ] ->
      Alcotest.(check bool) "trace non-empty" true (b.Bug.trace <> []);
      Alcotest.(check bool) "trace mentions the store" true
        (List.exists (fun e -> String.length e > 0) b.Bug.trace)
  | _ -> Alcotest.fail "expected exactly one bug"

let test_in_recovery_flag () =
  let saw = ref [] in
  let pre ctx =
    saw := Ctx.in_recovery ctx :: !saw;
    Ctx.store64 ctx ~label:"w" base 1;
    Ctx.clflush ctx ~label:"fl" base 8
  in
  let post ctx = saw := Ctx.in_recovery ctx :: !saw in
  ignore (Explorer.run (Explorer.scenario ~name:"rec" ~pre ~post));
  Alcotest.(check bool) "pre says false" true (List.mem false !saw);
  Alcotest.(check bool) "post says true" true (List.mem true !saw)

let () =
  Alcotest.run "ctx"
    [
      ( "oracles",
        [
          Alcotest.test_case "illegal store" `Quick test_illegal_store_low;
          Alcotest.test_case "illegal load" `Quick test_illegal_load_high;
          Alcotest.test_case "straddling access" `Quick test_access_straddling_limit;
          Alcotest.test_case "wild access near max_int" `Quick test_wild_access_near_max_int;
          Alcotest.test_case "infinite loop" `Quick test_infinite_loop_detected;
          Alcotest.test_case "program exception" `Quick test_program_exception_captured;
          Alcotest.test_case "assertions" `Quick test_assertions;
        ] );
      ( "memory",
        [
          Alcotest.test_case "width roundtrips" `Quick test_width_roundtrips;
          Alcotest.test_case "initial zero" `Quick test_initial_zero;
          Alcotest.test_case "rmw" `Quick test_rmw_semantics;
          Alcotest.test_case "memset/memcpy" `Quick test_memset_memcpy;
          Alcotest.test_case "memcpy_persist durable" `Quick test_memcpy_persist_durable;
          Alcotest.test_case "crash inside parallel" `Quick test_crash_inside_parallel;
          Alcotest.test_case "negative flush size rejected" `Quick
            test_negative_flush_size_rejected;
        ] );
      ( "buffered",
        [
          Alcotest.test_case "sb bypass wins" `Quick test_sb_bypass_wins;
          Alcotest.test_case "merged fallback" `Quick test_merged_fallback;
          Alcotest.test_case "masked store32" `Quick test_masked_store32;
          Alcotest.test_case "load8 inside store64" `Quick test_load8_inside_store64;
        ] );
      ( "drain",
        [
          Alcotest.test_case "original execution drains" `Quick test_original_execution_drains;
          Alcotest.test_case "no drain after a crash" `Quick test_no_drain_after_crash;
        ] );
      ( "widths",
        [
          Alcotest.test_case "out-of-range rejected, eager" `Quick
            (test_width_rejected Config.Eager);
          Alcotest.test_case "out-of-range rejected, buffered" `Quick
            (test_width_rejected Config.Buffered);
        ] );
      ( "threads",
        [
          Alcotest.test_case "tso visibility" `Quick test_parallel_tso_visibility;
          Alcotest.test_case "fence publishes" `Quick test_parallel_fence_publishes;
          Alcotest.test_case "exception unwinds" `Quick test_parallel_exception_unwinds;
          Alcotest.test_case "stack safety" `Quick test_many_yields_stack_safe;
        ] );
      ( "failures",
        [
          Alcotest.test_case "buffered store lost" `Quick test_buffered_store_lost_at_crash;
          Alcotest.test_case "multi-failure depth" `Quick test_multi_failure_depth;
          Alcotest.test_case "cross-recovery reads" `Quick test_multi_failure_reads_previous_recovery;
          Alcotest.test_case "single-candidate loads allocate nothing" `Quick
            test_single_candidate_loads_allocate_nothing;
          Alcotest.test_case
            "a forwarded load from a 48-deep buffer allocates nothing at trace depth 0" `Quick
            test_deep_forwarded_load_allocates_nothing;
          Alcotest.test_case "crash in recovery ends" `Quick test_crash_in_recovery_ends;
        ] );
      ( "misc",
        [
          Alcotest.test_case "trace recorded" `Quick test_trace_recorded;
          Alcotest.test_case "in_recovery" `Quick test_in_recovery_flag;
        ] );
    ]
