(* The two extensions the paper names: performance-bug reporting (redundant
   flushes and fences) and schedule fuzzing for concurrency bugs. *)
open Jaaru

let base = 0x1000
let no_failures = { Config.default with Config.max_failures = 0 }

let run_one ?(config = no_failures) body =
  Explorer.run ~config (Explorer.scenario ~name:"t" ~pre:body ~post:(fun _ -> ()))

(* --- performance reports ---------------------------------------------------- *)

let test_redundant_flush_detected () =
  let o =
    run_one (fun ctx ->
        Ctx.store64 ctx ~label:"w" base 1;
        Ctx.clflush ctx ~label:"good flush" base 8;
        Ctx.clflush ctx ~label:"bad flush" base 8 (* nothing new on the line *))
  in
  match o.Explorer.perf with
  | [ { Ctx.perf_kind = Ctx.Redundant_flush; perf_label = "bad flush" } ] -> ()
  | reports ->
      Alcotest.failf "expected one redundant flush, got %d reports" (List.length reports)

let test_flush_of_clean_line () =
  let o = run_one (fun ctx -> Ctx.clflush ctx ~label:"pointless" base 8) in
  Alcotest.(check int) "reported" 1 (List.length o.Explorer.perf)

let test_redundant_fence_detected () =
  let o =
    run_one (fun ctx ->
        Ctx.store64 ctx ~label:"w" base 1;
        Ctx.sfence ctx ~label:"good fence" ();
        Ctx.sfence ctx ~label:"bad fence" ())
  in
  match o.Explorer.perf with
  | [ { Ctx.perf_kind = Ctx.Redundant_fence; perf_label = "bad fence" } ] -> ()
  | reports -> Alcotest.failf "expected one redundant fence, got %d" (List.length reports)

let test_clean_protocol_no_reports () =
  let o =
    run_one (fun ctx ->
        Ctx.store64 ctx ~label:"w1" base 1;
        Ctx.clflush ctx ~label:"f1" base 8;
        Ctx.sfence ctx ~label:"s1" ();
        Ctx.store64 ctx ~label:"w2" base 2;
        Ctx.clflushopt ctx ~label:"f2" base 8;
        Ctx.sfence ctx ~label:"s2" ())
  in
  Alcotest.(check int) "no reports" 0 (List.length o.Explorer.perf)

let test_perf_resets_at_crash () =
  (* A line flushed before the crash is clean in the cache of the next
     execution, but flushing it during recovery is not redundant work by
     the recovery code — the dirty tracking restarts per execution, so the
     only report is the pre-failure one we planted. *)
  let config = Config.default in
  let pre ctx =
    Ctx.store64 ctx ~label:"w" base 1;
    Ctx.clflush ctx ~label:"f" base 8
  in
  let post ctx =
    Ctx.store64 ctx ~label:"rw" base 2;
    Ctx.clflush ctx ~label:"rf" base 8
  in
  let o = Explorer.run ~config (Explorer.scenario ~name:"pf" ~pre ~post) in
  Alcotest.(check int) "no spurious reports" 0 (List.length o.Explorer.perf)

let test_fixed_structures_are_flush_clean () =
  (* The fixed PMDK/RECIPE variants must not issue redundant flushes — a
     regression guard on their protocols. *)
  List.iter
    (fun (c : Recipe.Workloads.case) ->
      let o = Explorer.run ~config:c.config c.scenario in
      let redundant =
        List.filter (fun r -> r.Ctx.perf_kind = Ctx.Redundant_flush) o.Explorer.perf
      in
      if redundant <> [] then
        List.iter
          (fun (r : Ctx.perf_report) -> Format.printf "%s: %s@." c.id r.Ctx.perf_label)
          redundant;
      Alcotest.(check int) (c.id ^ " redundant flushes") 0 (List.length redundant))
    [ List.hd (Recipe.Workloads.fixed_cases ()) ]

(* --- schedule fuzzing --------------------------------------------------------- *)

(* An unsynchronised counter race: t0 does counter+=1, t1 does counter*=2
   with plain loads/stores. Different schedules yield different finals. *)
let race_final seed =
  let config =
    { no_failures with Config.schedule_seed = seed; Config.evict_policy = Config.Buffered }
  in
  let final = ref (-1) in
  let pre ctx =
    Ctx.store64 ctx ~label:"init" base 1;
    Ctx.mfence ctx ~label:"publish" ();
    Ctx.parallel ctx
      [
        (fun ctx ->
          let v = Ctx.load64 ctx ~label:"t0 read" base in
          Ctx.store64 ctx ~label:"t0 write" base (v + 1);
          Ctx.mfence ctx ~label:"t0 fence" ());
        (fun ctx ->
          let v = Ctx.load64 ctx ~label:"t1 read" base in
          Ctx.store64 ctx ~label:"t1 write" base (v * 2);
          Ctx.mfence ctx ~label:"t1 fence" ());
      ];
    Ctx.mfence ctx ~label:"join" ();
    final := Ctx.load64 ctx ~label:"final" base
  in
  ignore (run_one ~config pre);
  !final

let test_fuzzing_finds_schedules () =
  let outcomes =
    List.sort_uniq compare (List.map (fun s -> race_final (Some s)) (List.init 16 succ))
  in
  Format.printf "race outcomes over 16 seeds: %s@."
    (String.concat ", " (List.map string_of_int outcomes));
  (* Correct serialisations give 3 [increment first] or 4 [double first];
     racy interleavings give 2 (lost increment). Fuzzing must find at least
     two distinct behaviours, including a racy one. *)
  Alcotest.(check bool) "several schedules observed" true (List.length outcomes >= 2);
  Alcotest.(check bool) "a racy outcome observed" true (List.mem 2 outcomes)

let test_fuzzing_deterministic_per_seed () =
  Alcotest.(check int) "same seed, same schedule" (race_final (Some 7)) (race_final (Some 7));
  Alcotest.(check int) "round robin stable" (race_final None) (race_final None)

let test_fuzzing_composes_with_crash_exploration () =
  (* A seeded schedule under failure injection still explores exhaustively
     and deterministically. *)
  let config = { Config.default with Config.schedule_seed = Some 5 } in
  let pre ctx =
    Ctx.parallel ctx
      [
        (fun ctx ->
          Ctx.store64 ctx ~label:"t0 w" base 1;
          Ctx.clflush ctx ~label:"t0 f" base 8);
        (fun ctx ->
          Ctx.store64 ctx ~label:"t1 w" (base + 64) 2;
          Ctx.clflush ctx ~label:"t1 f" (base + 64) 8);
      ]
  in
  let post ctx =
    ignore (Ctx.load64 ctx ~label:"r0" base);
    ignore (Ctx.load64 ctx ~label:"r1" (base + 64))
  in
  let run () = Explorer.run ~config (Explorer.scenario ~name:"fz" ~pre ~post) in
  let a = run () and b = run () in
  Alcotest.(check bool) "clean" false (Explorer.found_bug a);
  Alcotest.(check bool) "exhausted" true a.Explorer.stats.Stats.exhausted;
  Alcotest.(check int) "deterministic executions" a.Explorer.stats.Stats.executions
    b.Explorer.stats.Stats.executions

let () =
  Alcotest.run "extensions"
    [
      ( "perf",
        [
          Alcotest.test_case "redundant flush" `Quick test_redundant_flush_detected;
          Alcotest.test_case "clean-line flush" `Quick test_flush_of_clean_line;
          Alcotest.test_case "redundant fence" `Quick test_redundant_fence_detected;
          Alcotest.test_case "clean protocol silent" `Quick test_clean_protocol_no_reports;
          Alcotest.test_case "resets at crash" `Quick test_perf_resets_at_crash;
          Alcotest.test_case "fixed structures clean" `Quick test_fixed_structures_are_flush_clean;
        ] );
      ( "fuzzing",
        [
          Alcotest.test_case "finds schedules" `Quick test_fuzzing_finds_schedules;
          Alcotest.test_case "deterministic per seed" `Quick test_fuzzing_deterministic_per_seed;
          Alcotest.test_case "composes with crashes" `Quick test_fuzzing_composes_with_crash_exploration;
        ] );
    ]
