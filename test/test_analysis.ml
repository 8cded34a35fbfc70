(* The persistency-sanitizer passes: synthetic event-stream unit tests for
   each pass, engine suppression/ordering semantics, and end-to-end
   root-causing of the seeded RECIPE missing-flush bugs without exploring a
   single crash. *)
open Jaaru

let line = Pmem.Addr.cache_line_size
let base = 0x1000

(* Feed a synthetic event list to one pass and collect every finding. *)
let run_pass (module P : Analysis.Pass.S) events =
  let inst = Analysis.Pass.instantiate (module P) in
  List.concat_map inst.Analysis.Pass.feed events

let store ?(tid = 0) ?(width = 8) ?(value = 1) ~label addr =
  Analysis.Event.Store { addr; width; value; tid; label }

let load ?(tid = 0) ?(width = 8) ?(value = 0) ~label addr =
  Analysis.Event.Load { addr; width; value; tid; label }

let flush ?(tid = 0) ~label line_addr =
  Analysis.Event.Flush { line_addr; kind = Analysis.Event.Clflush; tid; label }

let sfence ?(tid = 0) ~label () =
  Analysis.Event.Fence { kind = Analysis.Event.Sfence; tid; label }

let mfence ?(tid = 0) ~label () =
  Analysis.Event.Fence { kind = Analysis.Event.Mfence; tid; label }

let rmw ?(tid = 0) ?(width = 8) ?(old_value = 0) ~new_value ~label addr =
  Analysis.Event.Rmw { addr; width; old_value; new_value; tid; label }

let tstart ?(label = "par") ~parent tid = Analysis.Event.Thread_start { tid; parent; label }
let tjoin ?(label = "par") ~parent tid = Analysis.Event.Thread_join { tid; parent; label }

(* Feed a synthetic event list to one HB-aware pass, mirroring the engine's
   order: the shared clock substrate observes each event before the pass. *)
let run_pass_hb (module P : Analysis.Pass.S_hb) events =
  let hb = Analysis.Hb.create () in
  let inst = Analysis.Pass.instantiate_hb ~hb (module P) in
  List.concat_map
    (fun ev ->
      Analysis.Hb.observe hb ev;
      inst.Analysis.Pass.feed ev)
    events

let crash = Analysis.Event.Crash { label = Some "crash"; tid = 0 }
let fin = Analysis.Event.End_execution
let rules fs = List.sort_uniq compare (List.map (fun f -> f.Analysis.Report.rule) fs)
let labels fs = List.sort_uniq compare (List.concat_map (fun f -> f.Analysis.Report.labels) fs)

(* --- missing-flush pass ---------------------------------------------------------- *)

let test_mf_clean () =
  let fs =
    run_pass
      (module Analysis.Missing_flush)
      [ store ~label:"w" base; flush ~label:"f" base; sfence ~label:"s" (); fin ]
  in
  Alcotest.(check (list string)) "no findings" [] (rules fs)

let test_mf_unflushed_at_end () =
  let fs = run_pass (module Analysis.Missing_flush) [ store ~label:"w" base; fin ] in
  Alcotest.(check (list string)) "rule" [ "unflushed-at-end" ] (rules fs);
  Alcotest.(check (list string)) "root label" [ "w" ] (labels fs)

let test_mf_unfenced_at_end () =
  let fs =
    run_pass (module Analysis.Missing_flush) [ store ~label:"w" base; flush ~label:"f" base; fin ]
  in
  Alcotest.(check (list string)) "rule" [ "unfenced-at-end" ] (rules fs)

let test_mf_unpersisted_at_commit () =
  (* [w] stays dirty while a later fence persists another line: the classic
     seeded ctor-skips-flush shape. The root-cause label is the store's. *)
  let fs =
    run_pass
      (module Analysis.Missing_flush)
      [
        store ~label:"w" base;
        sfence ~label:"epoch" ();
        store ~label:"other" (base + line);
        flush ~label:"f other" (base + line);
        sfence ~label:"commit" ();
        fin;
      ]
  in
  Alcotest.(check (list string)) "rule" [ "unpersisted-at-commit" ] (rules fs);
  Alcotest.(check (list string)) "root label" [ "w" ] (labels fs)

let test_mf_commit_obligation_discharged () =
  (* Undo-log shape: the data store crosses the log-commit fence dirty but is
     flushed + fenced at transaction commit — no finding. *)
  let fs =
    run_pass
      (module Analysis.Missing_flush)
      [
        store ~label:"data" base;
        sfence ~label:"epoch" ();
        store ~label:"log" (base + line);
        flush ~label:"f log" (base + line);
        sfence ~label:"log commit" ();
        flush ~label:"f data" base;
        sfence ~label:"tx commit" ();
        fin;
      ]
  in
  Alcotest.(check (list string)) "discharged" [] (rules fs)

let test_mf_same_epoch_exempt () =
  (* A store made in the current epoch is not flagged by the fence that ends
     it — its flush legitimately belongs to the next batch. *)
  let fs =
    run_pass
      (module Analysis.Missing_flush)
      [
        store ~label:"w" base;
        store ~label:"other" (base + line);
        flush ~label:"f other" (base + line);
        sfence ~label:"commit" ();
        flush ~label:"f w" base;
        sfence ~label:"s" ();
        fin;
      ]
  in
  Alcotest.(check (list string)) "no findings" [] (rules fs)

let test_mf_crash_resets () =
  (* A crash discards the obligation; [End_execution] after recovery is
     clean. (The crash path itself never emits End_execution.) *)
  let fs =
    run_pass
      (module Analysis.Missing_flush)
      [
        store ~label:"w" base;
        sfence ~label:"epoch" ();
        crash;
        store ~label:"rec" (base + line);
        flush ~label:"f rec" (base + line);
        sfence ~label:"s" ();
        fin;
      ]
  in
  Alcotest.(check (list string)) "clean after crash" [] (rules fs)

(* --- torn-write pass ------------------------------------------------------------- *)

let test_tw_straddle () =
  let fs =
    run_pass (module Analysis.Torn_write) [ store ~width:8 ~label:"w" (base + line - 4); fin ]
  in
  Alcotest.(check (list string)) "rule" [ "straddles-cache-line" ] (rules fs);
  Alcotest.(check bool) "high severity" true
    (List.for_all (fun f -> f.Analysis.Report.severity = Analysis.Report.High) fs)

let test_tw_cross_thread () =
  let fs =
    run_pass
      (module Analysis.Torn_write)
      [ store ~tid:0 ~label:"a" base; store ~tid:1 ~label:"b" base; fin ]
  in
  Alcotest.(check (list string)) "rule" [ "cross-thread-overlap" ] (rules fs);
  Alcotest.(check (list string)) "both labels" [ "a"; "b" ] (labels fs)

let test_tw_fence_clears_ownership () =
  (* Proper handoff: the first writer fences before the second thread
     writes — no race. *)
  let fs =
    run_pass
      (module Analysis.Torn_write)
      [
        store ~tid:0 ~label:"a" base;
        flush ~tid:0 ~label:"f" base;
        sfence ~tid:0 ~label:"s" ();
        store ~tid:1 ~label:"b" base;
        fin;
      ]
  in
  Alcotest.(check (list string)) "no findings" [] (rules fs)

let test_tw_plain_overwrite_silent () =
  (* Initialise-then-update of an unflushed byte is normal behaviour. *)
  let fs =
    run_pass
      (module Analysis.Torn_write)
      [ store ~label:"init" base; store ~label:"update" base; fin ]
  in
  Alcotest.(check (list string)) "silent" [] (rules fs)

let test_tw_unfenced_overwrite () =
  (* Overwriting bytes whose flush has not been fenced: the in-flight flush
     may persist either value. *)
  let fs =
    run_pass
      (module Analysis.Torn_write)
      [ store ~label:"old" base; flush ~label:"f" base; store ~label:"new" base; fin ]
  in
  Alcotest.(check (list string)) "rule" [ "unfenced-overwrite" ] (rules fs);
  Alcotest.(check bool) "medium severity" true
    (List.for_all (fun f -> f.Analysis.Report.severity = Analysis.Report.Medium) fs)

(* --- redundant-flush/fence pass -------------------------------------------------- *)

let test_red_clean_flush () =
  let fs =
    run_pass
      (module Analysis.Redundant)
      [ store ~label:"w" base; flush ~label:"f" base; sfence ~label:"s" (); fin ]
  in
  Alcotest.(check (list string)) "no findings" [] (rules fs)

let test_red_redundant_flush () =
  let fs =
    run_pass
      (module Analysis.Redundant)
      [ store ~label:"w" base; flush ~label:"f1" base; flush ~label:"f2" base; fin ]
  in
  Alcotest.(check (list string)) "rule" [ "redundant-flush" ] (rules fs);
  Alcotest.(check (list string)) "second flush blamed" [ "f2" ] (labels fs)

let test_red_redundant_fence () =
  let fs =
    run_pass
      (module Analysis.Redundant)
      [
        store ~label:"w" base;
        flush ~label:"f" base;
        sfence ~label:"s1" ();
        sfence ~label:"s2" ();
        fin;
      ]
  in
  Alcotest.(check (list string)) "rule" [ "redundant-fence" ] (rules fs);
  Alcotest.(check (list string)) "second fence blamed" [ "s2" ] (labels fs)

let test_red_crash_resets () =
  let fs =
    run_pass
      (module Analysis.Redundant)
      [ store ~label:"w" base; flush ~label:"f1" base; crash; flush ~label:"f2" base; fin ]
  in
  (* After the crash nothing is dirty, so the recovery-side flush of a clean
     line is still redundant — but the pre-crash dirty set must not leak. *)
  Alcotest.(check (list string)) "rule" [ "redundant-flush" ] (rules fs);
  Alcotest.(check (list string)) "only post-crash flush" [ "f2" ] (labels fs)

(* --- perf reports still flow through Ctx (the legacy surface) -------------------- *)

let test_perf_reports_via_explorer () =
  let scn =
    Explorer.scenario ~name:"redundant"
      ~pre:(fun ctx ->
        Ctx.store64 ctx ~label:"w" base 1;
        Ctx.clflush ctx ~label:"f1" base 8;
        Ctx.clflush ctx ~label:"f2" base 8;
        Ctx.sfence ctx ~label:"s1" ();
        Ctx.sfence ctx ~label:"s2" ())
      ~post:(fun _ -> ())
  in
  let o = Explorer.run ~config:Config.default scn in
  let kinds =
    List.sort_uniq compare
      (List.map (fun r -> (r.Ctx.perf_kind, r.Ctx.perf_label)) o.Explorer.perf)
  in
  Alcotest.(check int) "two reports" 2 (List.length kinds);
  Alcotest.(check bool) "flush f2" true (List.mem (Ctx.Redundant_flush, "f2") kinds);
  Alcotest.(check bool) "fence s2" true (List.mem (Ctx.Redundant_fence, "s2") kinds)

(* --- redundant pass is thread-aware ---------------------------------------------- *)

let test_red_per_thread_fence () =
  (* A store on thread 0 must not excuse a fence on thread 1. *)
  let fs =
    run_pass (module Analysis.Redundant)
      [ store ~tid:0 ~label:"w" base; sfence ~tid:1 ~label:"s1" (); fin ]
  in
  Alcotest.(check (list string)) "rule" [ "redundant-fence" ] (rules fs);
  Alcotest.(check (list string)) "label" [ "s1" ] (labels fs)

let test_red_per_thread_flush () =
  (* Two threads each flushing a line they both dirtied are each doing
     necessary work — neither flush is redundant. *)
  let fs =
    run_pass (module Analysis.Redundant)
      [
        store ~tid:0 ~label:"w0" base;
        store ~tid:1 ~label:"w1" (base + 8);
        flush ~tid:0 ~label:"f0" base;
        flush ~tid:1 ~label:"f1" base;
        sfence ~tid:0 ~label:"s0" ();
        sfence ~tid:1 ~label:"s1" ();
        fin;
      ]
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

let test_red_redundant_mfence () =
  let fs =
    run_pass (module Analysis.Redundant)
      [ mfence ~label:"m1" (); store ~label:"w" base; mfence ~label:"m2" (); fin ]
  in
  Alcotest.(check (list string)) "rule" [ "redundant-mfence" ] (rules fs);
  Alcotest.(check (list string)) "only the empty fence" [ "m1" ] (labels fs)

let test_red_rmw_fences_exempt () =
  (* A locked RMW's intrinsic mfences are never flagged, even when nothing
     is pending — and they clear the thread's pending count. *)
  let fs =
    run_pass (module Analysis.Redundant)
      [ rmw ~new_value:None ~label:"cas" base; fin ]
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

let test_red_straddle_dirties_both () =
  (* A store across a line boundary dirties both lines: neither flush is
     redundant, and a third flush of either line is. *)
  let fs =
    run_pass (module Analysis.Redundant)
      [
        store ~width:8 ~label:"w" (base + line - 4);
        flush ~label:"f0" base;
        flush ~label:"f1" (base + line);
        flush ~label:"f1-again" (base + line);
        fin;
      ]
  in
  Alcotest.(check (list string)) "rule" [ "redundant-flush" ] (rules fs);
  Alcotest.(check (list string)) "only the repeat" [ "f1-again" ] (labels fs)

let test_red_tid_past_capacity () =
  (* Thread ids index flat per-thread state that grows on demand: a thread
     first seen after others keeps them as they were, and a thread id inside
     the grown range that never ran has nothing pending. *)
  let fs =
    run_pass (module Analysis.Redundant)
      [
        store ~tid:0 ~label:"w0" base;
        store ~tid:7 ~label:"w7" (base + line);
        flush ~tid:7 ~label:"f7" (base + line);
        flush ~tid:0 ~label:"f0" base;
        sfence ~tid:7 ~label:"s7" ();
        sfence ~tid:0 ~label:"s0" ();
        sfence ~tid:3 ~label:"s3" ();
        flush ~tid:12 ~label:"f12" base;
        sfence ~tid:12 ~label:"s12" ();
        fin;
      ]
  in
  Alcotest.(check (list string)) "labels" [ "f12"; "s3" ] (labels fs)

(* The pass as it was written over polymorphic hash tables keyed by
   [(tid, line)], kept as the reference model for the flat per-thread
   state. *)
module Reference_redundant = struct
  open Analysis

  let name = "redundant"

  type state = {
    dirty : (int * int, unit) Hashtbl.t;
        (* (tid, line): lines a thread stored to since its last flush of them *)
    unfenced : (int, int) Hashtbl.t;  (* tid -> stores/flushes since its last fence *)
  }

  let create () = { dirty = Hashtbl.create 32; unfenced = Hashtbl.create 8 }

  let pending st tid = Option.value ~default:0 (Hashtbl.find_opt st.unfenced tid)
  let bump st tid = Hashtbl.replace st.unfenced tid (pending st tid + 1)

  let finding rule label line detail =
    { Report.severity = Low; pass = name; rule; labels = [ label ]; line; detail }

  let on_event st (ev : Event.t) =
    match ev with
    | Store { addr; width; tid; _ } ->
        List.iter
          (fun line -> Hashtbl.replace st.dirty (tid, line) ())
          (Pmem.Addr.lines_spanned addr width);
        bump st tid;
        []
    | Rmw { addr; width; tid; new_value; _ } ->
        (* A locked RMW carries its own mfences: its store leaves the line
           dirty (a later flush of it is useful work) and nothing stays
           unfenced behind it. The intrinsic fences are never flagged. *)
        (match new_value with
        | Some _ ->
            List.iter
              (fun line -> Hashtbl.replace st.dirty (tid, line) ())
              (Pmem.Addr.lines_spanned addr width)
        | None -> ());
        Hashtbl.replace st.unfenced tid 0;
        []
    | Flush { line_addr; tid; label; _ } ->
        let line = Pmem.Addr.line_of line_addr in
        let fs =
          if Hashtbl.mem st.dirty (tid, line) then []
          else
            [
              finding "redundant-flush" label (Some line_addr)
                "flush of a cache line with no new stores to persist";
            ]
        in
        Hashtbl.remove st.dirty (tid, line);
        bump st tid;
        fs
    | Fence { kind = Sfence; tid; label } ->
        let fs =
          if pending st tid = 0 then
            [ finding "redundant-fence" label None "sfence with nothing pending to order" ]
          else []
        in
        Hashtbl.replace st.unfenced tid 0;
        fs
    | Fence { kind = Mfence; tid; label } ->
        let fs =
          if pending st tid = 0 then
            [ finding "redundant-mfence" label None "mfence with nothing pending to order" ]
          else []
        in
        Hashtbl.replace st.unfenced tid 0;
        fs
    | Crash _ ->
        Hashtbl.reset st.dirty;
        Hashtbl.reset st.unfenced;
        []
    | Load _ | Thread_start _ | Thread_join _ | Failure_point _ | End_execution -> []
end

(* Random event streams over ten threads and three lines, with stores that
   straddle line boundaries, RMWs with and without a store, flushes of a
   fourth line nothing stores to, both fences, loads, failure points and
   crashes: after every event the pass and the reference return the same
   findings. *)
let red_event_gen =
  let open QCheck.Gen in
  let tid = int_range 0 9 in
  let label = map (Printf.sprintf "e%d") (int_range 0 5) in
  let access =
    oneofl [ 1; 2; 4; 8 ] >>= fun width ->
    let in_line = int_range 0 ((3 * line) - width) >|= ( + ) base in
    let straddling () =
      map2 (fun k back -> base + (k * line) - back) (int_range 1 2) (int_range 1 (width - 1))
    in
    map
      (fun addr -> (addr, width))
      (if width = 1 then in_line else oneof [ in_line; straddling () ])
  in
  frequency
    [
      (6, map3 (fun tid (addr, width) label -> store ~tid ~width ~label addr) tid access label);
      ( 2,
        map3
          (fun tid (addr, width) (label, stored) ->
            rmw ~tid ~width ~new_value:(if stored then Some 1 else None) ~label addr)
          tid access (pair label bool) );
      ( 5,
        map3 (fun tid k label -> flush ~tid ~label (base + (k * line))) tid (int_range 0 3) label
      );
      (2, map2 (fun tid label -> sfence ~tid ~label ()) tid label);
      (1, map2 (fun tid label -> mfence ~tid ~label ()) tid label);
      (1, map3 (fun tid (addr, width) label -> load ~tid ~width ~label addr) tid access label);
      (1, map2 (fun tid label -> Analysis.Event.Failure_point { label; tid }) tid label);
      (1, map (fun tid -> Analysis.Event.Crash { label = None; tid }) tid);
    ]

let prop_red_matches_reference =
  QCheck.Test.make ~name:"redundant pass = hash-table reference" ~count:500
    (QCheck.make
       ~print:(fun evs -> String.concat "; " (List.map Analysis.Event.render evs))
       QCheck.Gen.(list_size (int_range 1 80) red_event_gen))
    (fun events ->
      let pass = Analysis.Pass.instantiate (module Analysis.Redundant) in
      let reference = Analysis.Pass.instantiate (module Reference_redundant) in
      List.for_all
        (fun ev -> pass.Analysis.Pass.feed ev = reference.Analysis.Pass.feed ev)
        (events @ [ fin ]))

(* --- vector clocks ---------------------------------------------------------------- *)

let test_vc_basics () =
  let open Analysis.Vector_clock in
  Alcotest.(check int) "empty reads 0" 0 (get empty 3);
  let c = tick (tick empty 1) 1 in
  Alcotest.(check int) "ticked" 2 (get c 1);
  Alcotest.(check int) "out of range reads 0" 0 (get c 5);
  let j = join c (of_list [ 3; 1 ]) in
  Alcotest.(check int) "join max (0)" 3 (get j 0);
  Alcotest.(check int) "join max (1)" 2 (get j 1);
  Alcotest.(check bool) "leq refl" true (leq j j);
  Alcotest.(check bool) "c leq join" true (leq c j);
  Alcotest.(check bool) "join not leq c" false (leq j c);
  Alcotest.(check bool) "empty leq all" true (leq empty c);
  Alcotest.(check string) "render" "[3,2]" (to_string j)

let test_vc_epoch () =
  let open Analysis.Vector_clock in
  (* An access by thread 1 at its step 2... *)
  let a = of_list [ 0; 2 ] in
  Alcotest.(check bool) "ordered" true (epoch_leq a ~tid:1 (of_list [ 5; 2 ]));
  Alcotest.(check bool) "concurrent" false (epoch_leq a ~tid:1 (of_list [ 5; 1 ]))

(* --- happens-before substrate ----------------------------------------------------- *)

let test_hb_edges () =
  let hb = Analysis.Hb.create () in
  let obs = Analysis.Hb.observe hb in
  let vc_leq = Analysis.Vector_clock.leq in
  obs (store ~tid:0 ~label:"init" base);
  let init_clock = Option.get (Analysis.Hb.location hb base) in
  obs (tstart ~parent:0 1);
  Alcotest.(check bool) "spawn edge: child sees parent's store" true
    (vc_leq init_clock (Analysis.Hb.clock hb 1));
  obs (tstart ~parent:0 2);
  obs (store ~tid:1 ~label:"w1" (base + 8));
  let w1_clock = Option.get (Analysis.Hb.location hb (base + 8)) in
  Alcotest.(check bool) "siblings unordered" false
    (vc_leq w1_clock (Analysis.Hb.clock hb 2));
  (* rf-into-RMW: a CAS reading those bytes inherits the writer's history. *)
  obs (rmw ~tid:2 ~new_value:(Some 1) ~label:"cas" (base + 8));
  Alcotest.(check bool) "acquire edge" true (vc_leq w1_clock (Analysis.Hb.clock hb 2));
  obs (tjoin ~parent:0 1);
  Alcotest.(check bool) "join edge" true (vc_leq w1_clock (Analysis.Hb.clock hb 0))

let test_hb_commit_and_reset () =
  let hb = Analysis.Hb.create () in
  let obs = Analysis.Hb.observe hb in
  let ln = Pmem.Addr.line_of base in
  obs (store ~tid:0 ~label:"w" base);
  let g = Analysis.Hb.line_gen hb ln in
  Alcotest.(check bool) "store bumps the generation" true (g > 0);
  let committed () =
    Analysis.Hb.line_committed hb ln ~gen:g ~before:(Analysis.Hb.clock hb 0)
  in
  Alcotest.(check bool) "store alone uncommitted" false (committed ());
  obs (flush ~tid:0 ~label:"f" base);
  Alcotest.(check bool) "flush alone uncommitted" false (committed ());
  obs (sfence ~tid:0 ~label:"s" ());
  Alcotest.(check bool) "flush+fence commits" true (committed ());
  Alcotest.(check bool) "commit not ordered before a stale clock" false
    (Analysis.Hb.line_committed hb ln ~gen:g ~before:Analysis.Vector_clock.empty);
  obs crash;
  Alcotest.(check int) "crash resets generations" 0 (Analysis.Hb.line_gen hb ln);
  Alcotest.(check bool) "crash resets location clocks" true
    (Analysis.Hb.location hb base = None)

let test_hb_snapshot () =
  let hb = Analysis.Hb.create ~record:true () in
  List.iter (Analysis.Hb.observe hb)
    [
      store ~tid:0 ~label:"a" base;
      tstart ~parent:0 1;
      store ~tid:1 ~label:"b" (base + 8);
      store ~tid:0 ~label:"c" (base + 16);
    ];
  Alcotest.(check int) "ids assigned" 4 (Analysis.Hb.events_seen hb);
  let hb_before a ~tid b =
    Analysis.Vector_clock.epoch_leq (Analysis.Hb.snapshot hb a) ~tid
      (Analysis.Hb.snapshot hb b)
  in
  Alcotest.(check bool) "a happens-before b (spawn edge)" true (hb_before 0 ~tid:0 2);
  Alcotest.(check bool) "b concurrent with c" false (hb_before 2 ~tid:1 3);
  (match Analysis.Hb.snapshot (Analysis.Hb.create ()) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "snapshot without ~record:true must raise")

(* --- persistency-race-hb ---------------------------------------------------------- *)

let test_race_write_write () =
  let fs =
    run_pass_hb
      (module Analysis.Race)
      [
        tstart ~parent:0 1;
        tstart ~parent:0 2;
        store ~tid:1 ~label:"w1" base;
        store ~tid:2 ~label:"w2" base;
        fin;
      ]
  in
  Alcotest.(check (list string)) "rule" [ "persistency-race-hb" ] (rules fs);
  Alcotest.(check (list string)) "both labels" [ "w1"; "w2" ] (labels fs);
  match fs with
  | [ f ] -> Alcotest.(check bool) "high severity" true (f.Analysis.Report.severity = High)
  | _ -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_race_read_write () =
  let fs =
    run_pass_hb
      (module Analysis.Race)
      [
        tstart ~parent:0 1;
        tstart ~parent:0 2;
        load ~tid:1 ~label:"r1" base;
        store ~tid:2 ~label:"w2" base;
        fin;
      ]
  in
  Alcotest.(check (list string)) "read/write race" [ "r1"; "w2" ] (labels fs)

let test_race_lock_protocol_silent () =
  (* The P-CLHT locking shape: CAS acquire, plain-store release. The second
     thread's CAS reads the unlock word and inherits the first critical
     section's history, ordering the data accesses. *)
  let lock = base + 256 in
  let fs =
    run_pass_hb
      (module Analysis.Race)
      [
        tstart ~parent:0 1;
        tstart ~parent:0 2;
        rmw ~tid:1 ~new_value:(Some 1) ~label:"lock1" lock;
        store ~tid:1 ~label:"data1" base;
        store ~tid:1 ~value:0 ~label:"unlock1" lock;
        rmw ~tid:2 ~new_value:(Some 1) ~label:"lock2" lock;
        load ~tid:2 ~label:"read2" base;
        store ~tid:2 ~label:"data2" base;
        store ~tid:2 ~value:0 ~label:"unlock2" lock;
        tjoin ~parent:0 1;
        tjoin ~parent:0 2;
        load ~tid:0 ~label:"check" base;
        fin;
      ]
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

let test_race_join_orders_parent () =
  let fs =
    run_pass_hb
      (module Analysis.Race)
      [
        tstart ~parent:0 1;
        store ~tid:1 ~label:"w1" base;
        tjoin ~parent:0 1;
        store ~tid:0 ~label:"w0" base;
        fin;
      ]
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

(* --- unordered-persist-observed --------------------------------------------------- *)

let test_rob_uncommitted_observed () =
  let fs =
    run_pass_hb
      (module Analysis.Robustness)
      [
        tstart ~parent:0 1;
        store ~tid:1 ~label:"w" base;
        tjoin ~parent:0 1;
        load ~tid:0 ~label:"r" base;
        fin;
      ]
  in
  Alcotest.(check (list string)) "rule" [ "unordered-persist-observed" ] (rules fs);
  Alcotest.(check (list string)) "store label" [ "w" ] (labels fs);
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "medium severity" true (f.Analysis.Report.severity = Medium)
  | _ -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_rob_committed_silent () =
  let fs =
    run_pass_hb
      (module Analysis.Robustness)
      [
        tstart ~parent:0 1;
        store ~tid:1 ~label:"w" base;
        flush ~tid:1 ~label:"f" base;
        sfence ~tid:1 ~label:"s" ();
        tjoin ~parent:0 1;
        load ~tid:0 ~label:"r" base;
        fin;
      ]
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

let test_rob_same_thread_exempt () =
  let fs =
    run_pass_hb
      (module Analysis.Robustness)
      [ store ~tid:0 ~label:"w" base; load ~tid:0 ~label:"r" base; fin ]
  in
  Alcotest.(check int) "no findings" 0 (List.length fs)

let test_rob_concurrent_commit_still_flagged () =
  (* The line was committed, but not by an edge ordered before the load:
     the observing thread cannot rely on it. *)
  let fs =
    run_pass_hb
      (module Analysis.Robustness)
      [
        tstart ~parent:0 1;
        tstart ~parent:0 2;
        store ~tid:1 ~label:"w" base;
        flush ~tid:1 ~label:"f" base;
        sfence ~tid:1 ~label:"s" ();
        load ~tid:2 ~label:"r" base;
        fin;
      ]
  in
  Alcotest.(check (list string)) "flagged" [ "w" ] (labels fs)

(* --- HB findings are deterministic across jobs x snapshot ------------------------- *)

let test_hb_findings_deterministic () =
  let base_config =
    {
      Config.default with
      Config.analyze = true;
      evict_policy = Config.Buffered;
      stop_at_first_bug = false;
    }
  in
  List.iter
    (fun (name, scn, want_race) ->
      let render config =
        let o = Explorer.run ~config scn in
        String.concat "\n"
          (List.map
             (Format.asprintf "%a" Analysis.Report.pp_finding)
             o.Explorer.findings)
      in
      let reference =
        render { base_config with Config.jobs = 1; snapshot = false }
      in
      Alcotest.(check bool)
        (name ^ " race findings as expected")
        want_race
        (Test_env.contains ~needle:"persistency-race-hb" reference);
      List.iter
        (fun jobs ->
          List.iter
            (fun snapshot ->
              Alcotest.(check string)
                (Printf.sprintf "%s jobs=%d snapshot=%b" name jobs snapshot)
                reference
                (render { base_config with Config.jobs = jobs; snapshot }))
            [ false; true ])
        (Test_env.jobs_matrix ~default:[ 1; 4 ]))
    [
      ( "P-CLHT-small",
        Recipe.Workloads.concurrent_scenario ~ks0:[ 3 ] ~ks1:[ 11 ] ~racy:false (),
        false );
      ("P-CLHT-racy", Recipe.Workloads.concurrent_scenario ~racy:true (), true);
    ]

(* --- engine: dedup, suppression, ordering ---------------------------------------- *)

let mk_engine ?suppress () =
  Analysis.Engine.create ?suppress
    [
      Analysis.Pass.instantiate (module Analysis.Missing_flush);
      Analysis.Pass.instantiate (module Analysis.Redundant);
    ]

let test_engine_dedup_and_order () =
  let e = mk_engine () in
  List.iter (Analysis.Engine.emit e)
    [
      store ~label:"w" base;
      flush ~label:"f1" base;
      flush ~label:"f2" base;
      (* same redundant flush again: must dedup *)
      flush ~label:"f2" base;
      fin;
    ];
  let fs = Analysis.Engine.findings e in
  Alcotest.(check int) "deduplicated" 2 (List.length fs);
  (* Sorted most-severe first: the High unfenced-at-end precedes the Low
     redundant-flush. *)
  Alcotest.(check bool) "severity order" true
    ((List.hd fs).Analysis.Report.severity = Analysis.Report.High)

let test_engine_suppression () =
  let run suppress =
    let e = mk_engine ~suppress () in
    List.iter (Analysis.Engine.emit e) [ store ~label:"w" base; fin ];
    Analysis.Engine.findings e
  in
  Alcotest.(check int) "unsuppressed" 1 (List.length (run []));
  Alcotest.(check int) "suppressed" 0 (List.length (run [ "w" ]));
  Alcotest.(check int) "other label keeps it" 1 (List.length (run [ "x" ]))

let test_engine_partial_suppression () =
  let e = mk_engine ~suppress:[ "a" ] () in
  List.iter (Analysis.Engine.emit e)
    [ store ~label:"a" base; store ~label:"b" (base + 8); fin ];
  match Analysis.Engine.findings e with
  | [ f ] -> Alcotest.(check (list string)) "kept label" [ "b" ] f.Analysis.Report.labels
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* --- severity helpers ------------------------------------------------------------ *)

let test_severity_helpers () =
  Alcotest.(check bool) "high >= medium" true
    (Analysis.Report.severity_at_least ~threshold:Analysis.Report.Medium Analysis.Report.High);
  Alcotest.(check bool) "low < medium" false
    (Analysis.Report.severity_at_least ~threshold:Analysis.Report.Medium Analysis.Report.Low);
  List.iter
    (fun s ->
      Alcotest.(check bool) "name roundtrip" true
        (Analysis.Report.severity_of_name (Analysis.Report.severity_name s) = Some s))
    [ Analysis.Report.Low; Analysis.Report.Medium; Analysis.Report.High ]

(* --- lint root-causes the seeded RECIPE bugs without reaching the symptom -------- *)

let lint_roots_case id =
  let c = Case.find (Recipe.Workloads.fig13_cases ()) id in
  Alcotest.(check bool) (id ^ " declares roots") true (c.Case.lint_roots <> []);
  let config =
    {
      c.Case.config with
      Config.analyze = true;
      stop_at_first_bug = false;
      max_executions = 1;
    }
  in
  let o = Explorer.run ~config c.Case.scenario in
  (* One failure-free execution: the crash symptom is never explored... *)
  Alcotest.(check int) (id ^ " single execution") 1 o.Explorer.stats.Stats.executions;
  Alcotest.(check bool) (id ^ " no symptom reached") true (o.Explorer.bugs = []);
  (* ...yet the analysis names a guilty store. *)
  let root_caused =
    List.exists
      (fun f ->
        f.Analysis.Report.severity = Analysis.Report.High
        && f.Analysis.Report.pass = "missing-flush"
        && List.exists (fun l -> List.mem l c.Case.lint_roots) f.Analysis.Report.labels)
      o.Explorer.findings
  in
  Alcotest.(check bool) (id ^ " root-caused") true root_caused

let test_lint_root_causes () =
  List.iter lint_roots_case
    [
      "CCEH-1"; "CCEH-2"; "CCEH-3"; "FAST_FAIR-1"; "FAST_FAIR-2"; "FAST_FAIR-3"; "P-CLHT-1";
      "P-CLHT-2";
    ]

let test_lint_fixed_variants_clean () =
  (* The fixed variants carry no high-severity findings under the same
     single-execution lint configuration. *)
  List.iter
    (fun (c : Recipe.Workloads.case) ->
      let config =
        {
          c.Case.config with
          Config.analyze = true;
          stop_at_first_bug = false;
          max_executions = 1;
        }
      in
      let o = Explorer.run ~config c.Case.scenario in
      let high =
        List.filter
          (fun f -> f.Analysis.Report.severity = Analysis.Report.High)
          o.Explorer.findings
      in
      Alcotest.(check int) (c.Case.id ^ " no high findings") 0 (List.length high))
    (Recipe.Workloads.fixed_cases ())

(* --- bounded trace ring surfaces its losses -------------------------------------- *)

let test_bug_trace_dropped () =
  let scn =
    Explorer.scenario ~name:"dropped"
      ~pre:(fun ctx ->
        for i = 0 to 7 do
          Ctx.store64 ctx ~label:(Printf.sprintf "w%d" i) (base + (64 * i)) 1;
          Ctx.clflush ctx ~label:(Printf.sprintf "f%d" i) (base + (64 * i)) 8
        done)
      ~post:(fun ctx ->
        (* Enough recovery events to wrap a depth-4 ring before the oracle
           fires, whichever failure point the explorer injects first. *)
        for i = 0 to 7 do
          ignore (Ctx.load64 ctx ~label:(Printf.sprintf "r%d" i) (base + (64 * i)))
        done;
        Ctx.check ctx ~label:"oracle" (Ctx.load64 ctx ~label:"r" base = 1) "lost")
  in
  let config =
    { Config.default with Config.stop_at_first_bug = true; Config.trace_depth = 4 }
  in
  let o = Explorer.run ~config scn in
  match o.Explorer.bugs with
  | [ b ] ->
      Alcotest.(check int) "window size" 4 (List.length b.Bug.trace);
      Alcotest.(check bool) "events were dropped" true (b.Bug.dropped > 0);
      let s = Format.asprintf "%a" Bug.pp b in
      Alcotest.(check bool) "pp mentions the loss" true
        (Test_env.contains ~needle:"earlier events dropped" s)
  | bs -> Alcotest.failf "expected one bug, got %d" (List.length bs)

let () =
  Alcotest.run "analysis"
    [
      ( "missing-flush",
        [
          Alcotest.test_case "clean protocol" `Quick test_mf_clean;
          Alcotest.test_case "unflushed at end" `Quick test_mf_unflushed_at_end;
          Alcotest.test_case "unfenced at end" `Quick test_mf_unfenced_at_end;
          Alcotest.test_case "unpersisted at commit" `Quick test_mf_unpersisted_at_commit;
          Alcotest.test_case "undo-log shape discharged" `Quick
            test_mf_commit_obligation_discharged;
          Alcotest.test_case "same-epoch stores exempt" `Quick test_mf_same_epoch_exempt;
          Alcotest.test_case "crash resets obligations" `Quick test_mf_crash_resets;
        ] );
      ( "torn-write",
        [
          Alcotest.test_case "straddles cache line" `Quick test_tw_straddle;
          Alcotest.test_case "cross-thread overlap" `Quick test_tw_cross_thread;
          Alcotest.test_case "fence clears ownership" `Quick test_tw_fence_clears_ownership;
          Alcotest.test_case "plain overwrite silent" `Quick test_tw_plain_overwrite_silent;
          Alcotest.test_case "unfenced overwrite" `Quick test_tw_unfenced_overwrite;
        ] );
      ( "redundant",
        [
          Alcotest.test_case "clean flush" `Quick test_red_clean_flush;
          Alcotest.test_case "redundant flush" `Quick test_red_redundant_flush;
          Alcotest.test_case "redundant fence" `Quick test_red_redundant_fence;
          Alcotest.test_case "crash resets" `Quick test_red_crash_resets;
          Alcotest.test_case "per-thread fence" `Quick test_red_per_thread_fence;
          Alcotest.test_case "per-thread flush" `Quick test_red_per_thread_flush;
          Alcotest.test_case "redundant mfence" `Quick test_red_redundant_mfence;
          Alcotest.test_case "rmw fences exempt" `Quick test_red_rmw_fences_exempt;
          Alcotest.test_case "a straddling store dirties both lines" `Quick
            test_red_straddle_dirties_both;
          Alcotest.test_case "a thread id past the initial capacity" `Quick
            test_red_tid_past_capacity;
          QCheck_alcotest.to_alcotest prop_red_matches_reference;
          Alcotest.test_case "perf reports via explorer" `Quick test_perf_reports_via_explorer;
        ] );
      ( "vector-clock",
        [
          Alcotest.test_case "basics" `Quick test_vc_basics;
          Alcotest.test_case "epoch test" `Quick test_vc_epoch;
        ] );
      ( "happens-before",
        [
          Alcotest.test_case "spawn/acquire/join edges" `Quick test_hb_edges;
          Alcotest.test_case "persist commit and crash reset" `Quick
            test_hb_commit_and_reset;
          Alcotest.test_case "snapshot oracle" `Quick test_hb_snapshot;
          Alcotest.test_case "findings deterministic" `Quick test_hb_findings_deterministic;
        ] );
      ( "race",
        [
          Alcotest.test_case "write/write race" `Quick test_race_write_write;
          Alcotest.test_case "read/write race" `Quick test_race_read_write;
          Alcotest.test_case "lock protocol silent" `Quick test_race_lock_protocol_silent;
          Alcotest.test_case "join orders parent" `Quick test_race_join_orders_parent;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "uncommitted observed" `Quick test_rob_uncommitted_observed;
          Alcotest.test_case "committed silent" `Quick test_rob_committed_silent;
          Alcotest.test_case "same thread exempt" `Quick test_rob_same_thread_exempt;
          Alcotest.test_case "concurrent commit flagged" `Quick
            test_rob_concurrent_commit_still_flagged;
        ] );
      ( "engine",
        [
          Alcotest.test_case "dedup and order" `Quick test_engine_dedup_and_order;
          Alcotest.test_case "suppression" `Quick test_engine_suppression;
          Alcotest.test_case "partial suppression" `Quick test_engine_partial_suppression;
          Alcotest.test_case "severity helpers" `Quick test_severity_helpers;
        ] );
      ( "lint",
        [
          Alcotest.test_case "root-causes seeded bugs" `Quick test_lint_root_causes;
          Alcotest.test_case "fixed variants clean" `Quick test_lint_fixed_variants_clean;
        ] );
      ( "trace",
        [ Alcotest.test_case "dropped events surfaced" `Quick test_bug_trace_dropped ] );
    ]
