(* Regenerates every table and figure of the paper's evaluation:

     table1   - Px86sim reordering constraints (Table 1)
     table2   - system configuration (Table 2)
     fig12/16 - bugs found in PMDK (+ manifestation detail)
     fig13/15 - bugs found in RECIPE (+ manifestation detail)
     fig14    - Jaaru state-space reduction vs. the eager (Yat) baseline
     analysis - overhead of the online persistency-sanitizer passes
     ablation - constraint refinement / commit-store design points
     hot-byte - recovery loads from a line with one byte stored 10,000 times
     ops      - ns per store / load / flush / fence through Ctx in recovery

   Run with no arguments for everything, or pass section names. *)

open Jaaru

let section_header title = Format.printf "@.=== %s ===@.@." title

(* --- Table 1 ----------------------------------------------------------------- *)

let table1 () =
  section_header
    "Table 1: Px86sim reordering constraints (Y ordered / N reorderable / CL same-line)";
  Format.printf "%a@." Tso.Constraints.pp_table ()

(* --- Table 2 ----------------------------------------------------------------- *)

let table2 () =
  section_header "Table 2: system configuration";
  Format.printf "CPU                 %d-core host (exploration parallelises across domains: --jobs)@."
    (Domain.recommended_domain_count ());
  Format.printf "Volatile memory     host RAM@.";
  Format.printf "Non-volatile memory full Px86sim semantics simulated (store buffers,@.";
  Format.printf "                    flush buffers, clflush/clflushopt/clwb/sfence/mfence)@.";
  Format.printf "OS                  %s@." Sys.os_type;
  Format.printf "Runtime             OCaml %s@." Sys.ocaml_version

(* --- bug tables (Figs. 12/13/15/16) ------------------------------------------ *)

let bug_table title cases =
  section_header title;
  Format.printf "%-14s %-16s %s@." "#" "Benchmark" "Symptom";
  List.map
    (fun (c : Case.t) ->
      let t0 = Unix.gettimeofday () in
      let o = Explorer.run ~config:c.config c.scenario in
      let dt = Unix.gettimeofday () -. t0 in
      let symptom = match o.Explorer.bugs with [] -> "NOT FOUND" | b :: _ -> Bug.symptom b in
      Format.printf "%-14s %-16s %-55s %s@." c.id c.benchmark symptom
        (Printf.sprintf "(%d exec, %.2fs)" o.Explorer.stats.Stats.executions dt);
      (c, symptom))
    cases

let fig12 () =
  bug_table "Figure 12: bugs found in PMDK"
    (Pmdk.Workloads.fig12_cases () @ Pmdk.Workloads.checksum_cases ())

let fig13 () =
  bug_table "Figure 13: bugs found in RECIPE (all 18, paper numbering)"
    (Recipe.Workloads.fig13_cases ())

let manifestation_table title rows =
  section_header title;
  Format.printf "%-14s %-55s %s@." "Bug ID" "Type of bug" "Cause / manifestation";
  List.iter
    (fun ((c : Case.t), symptom) -> Format.printf "%-14s %-55s %s@." c.id c.description symptom)
    rows

(* --- Figure 14 ---------------------------------------------------------------- *)

type fig14_row = {
  benchmark : string;
  jexec : int;
  jtime : float;
  fpoints : int;
  per_fp : float;
  yat_log10 : float;
}

let fig14_sizes =
  [ ("CCEH", 24); ("FAST_FAIR", 10); ("P-ART", 8); ("P-BwTree", 7); ("P-CLHT", 3); ("P-Masstree", 4) ]

let fig14_row (benchmark, n) =
  let scn = Recipe.Workloads.fixed_scenario benchmark n in
  let config = { Config.default with Config.max_steps = 200_000 } in
  let t0 = Unix.gettimeofday () in
  let o = Explorer.run ~config scn in
  let jtime = Unix.gettimeofday () -. t0 in
  assert (not (Explorer.found_bug o));
  let yat = Yat.State_count.analyze ~config (fun ctx -> scn.Explorer.pre ctx) in
  {
    benchmark;
    jexec = o.Explorer.stats.Stats.executions;
    jtime;
    fpoints = o.Explorer.stats.Stats.failure_points;
    per_fp = Stats.executions_per_fp o.Explorer.stats;
    yat_log10 = yat.Yat.State_count.log10_total;
  }

let fig14 () =
  section_header "Figure 14: Jaaru's state-space reduction";
  Format.printf "%-12s %8s %10s %10s %10s %16s@." "Benchmark" "#JExec." "JTime" "#FPoints"
    "Exec/FP" "#Yat Execs.";
  let rows = List.map fig14_row fig14_sizes in
  List.iter
    (fun r ->
      Format.printf "%-12s %8d %9.2fs %10d %10.2f %16s@." r.benchmark r.jexec r.jtime r.fpoints
        r.per_fp
        (Format.asprintf "%a" Yat.State_count.pp_count r.yat_log10))
    rows;
  Format.printf
    "@.(Shape to compare with the paper: a handful of executions per failure point —@.\
     the paper reports 1.5 to 8 — against astronomically many eager states.)@."

(* Byte-identity of reports and comparable stats — the determinism contract
   every perf layer and jobs value must preserve. *)
let same_outcome (a : Explorer.outcome) (b : Explorer.outcome) =
  a.Explorer.bugs = b.Explorer.bugs
  && a.Explorer.multi_rf = b.Explorer.multi_rf
  && a.Explorer.perf = b.Explorer.perf
  && a.Explorer.findings = b.Explorer.findings
  && Stats.comparable a.Explorer.stats = Stats.comparable b.Explorer.stats

(* --- analysis overhead ---------------------------------------------------------- *)

(* Cost of the online persistency-sanitizer passes, split along the
   [analyze_hb] axis: each Fig. 14 workload explored exhaustively with the
   analysis engine off, with the sanitizer passes alone, and with the
   happens-before passes (vector-clock substrate + race + robustness) on
   top. All passes are O(1)-ish hashtable work per event — the HB layer adds
   clock allocation on stores and synchronisation events — so the HB
   increment should stay within ~2x of the sanitizer increment.

   Single runs are tens of milliseconds, well inside scheduler jitter, so
   the three configs are interleaved across several rounds and each
   (config, benchmark) cell keeps its minimum — the TOTAL row over those
   minima is the denoised summary and its HB/sanit ratio the number to
   watch. *)
let analysis_overhead () =
  section_header
    "Analysis: sanitizer + happens-before overhead (off / sanitizer / +HB, Fig. 14 \
     workloads)";
  let scns =
    List.map (fun (b, n) -> (b, Recipe.Workloads.fixed_scenario b n)) fig14_sizes
  in
  let configs = [| (false, false); (true, false); (true, true) |] in
  let nb = List.length scns in
  let times = Array.make_matrix (Array.length configs) nb infinity in
  let findings = Array.make nb 0 in
  (* One untimed warmup per (config, workload) cell — warming only the
     default config would leave the analysis passes' code paths and tables
     cold for their first timed round. *)
  Array.iter
    (fun (analyze, analyze_hb) ->
      let config = { Config.default with Config.max_steps = 200_000; analyze; analyze_hb } in
      List.iter (fun (_, scn) -> ignore (Explorer.run ~config scn)) scns)
    configs;
  for _round = 1 to 5 do
    Array.iteri
      (fun ci (analyze, analyze_hb) ->
        let config =
          { Config.default with Config.max_steps = 200_000; analyze; analyze_hb }
        in
        List.iteri
          (fun bi (_, scn) ->
            (* Level the allocator before every timed cell: the minima should
               compare analysis work, not major-heap state left behind by the
               previous cell. *)
            Gc.compact ();
            let t0 = Unix.gettimeofday () in
            let o = Explorer.run ~config scn in
            times.(ci).(bi) <- min times.(ci).(bi) (Unix.gettimeofday () -. t0);
            if analyze && analyze_hb then findings.(bi) <- o.Explorer.stats.Stats.findings)
          scns)
      configs
  done;
  Format.printf "%-12s %10s %10s %10s %10s %10s %9s@." "Benchmark" "off" "sanitizer"
    "+HB" "sanit.ovh" "HB ovh" "HB/sanit";
  let row name t_off t_san t_hb tail =
    let san_ovh = t_san -. t_off and hb_ovh = t_hb -. t_san in
    Format.printf "%-12s %9.2fs %9.2fs %9.2fs %9.1f%% %9.1f%% %8.2fx%s@." name t_off t_san
      t_hb
      (100. *. san_ovh /. t_off)
      (100. *. hb_ovh /. t_off)
      (if san_ovh > 0. then hb_ovh /. san_ovh else Float.nan)
      tail
  in
  List.iteri
    (fun bi (benchmark, _) ->
      row benchmark times.(0).(bi) times.(1).(bi) times.(2).(bi)
        (Printf.sprintf "  (%d finding(s))" findings.(bi)))
    scns;
  let total ci = Array.fold_left ( +. ) 0. times.(ci) in
  row "TOTAL" (total 0) (total 1) (total 2) ""

(* --- snapshot/resume ----------------------------------------------------------- *)

(* The failure-point snapshot layer (Config.snapshot): every crash subtree
   replays from a captured snapshot instead of re-executing the pre-failure
   program, so per-replay cost stops depending on how much program ran before
   the crash. The sweep uses a bulk-load scenario whose pre does n
   store+clflush+sfence rounds and whose recovery reads one slot — the
   pre-failure-dominated shape where the paper's fork-based rollback pays
   off. Wall-time ratio should grow with n; outcomes must stay
   byte-identical with snapshots on or off. *)
let snapshot_scenario n =
  let base = 0x1000 in
  Explorer.scenario ~name:(Printf.sprintf "bulk-load-%d" n)
    ~pre:(fun ctx ->
      for i = 0 to n - 1 do
        Ctx.store64 ctx ~label:"load" (base + (64 * i)) (i + 1);
        Ctx.clflush ctx ~label:"persist" (base + (64 * i)) 8;
        Ctx.sfence ctx ~label:"order" ()
      done)
    ~post:(fun ctx -> ignore (Ctx.load64 ctx ~label:"probe" base))

let snapshot_timed ~snapshot scn =
  let config = { Config.default with Config.snapshot } in
  let t0 = Unix.gettimeofday () in
  let o = Explorer.run ~config scn in
  (o, Unix.gettimeofday () -. t0)

let snapshot_sweep sizes =
  section_header "Snapshot: pre-failure-length sweep (snapshot off vs on)";
  Format.printf "%-8s %8s %10s %10s %9s %s@." "n" "exec" "off" "on" "speedup" "identical";
  List.map
    (fun n ->
      let scn = snapshot_scenario n in
      let o_off, t_off = snapshot_timed ~snapshot:false scn in
      let o_on, t_on = snapshot_timed ~snapshot:true scn in
      let identical = same_outcome o_off o_on in
      let speedup = t_off /. t_on in
      Format.printf "%-8d %8d %9.3fs %9.3fs %8.2fx %s@." n
        o_off.Explorer.stats.Stats.executions t_off t_on speedup
        (if identical then "yes" else "NO");
      assert identical;
      speedup)
    sizes

(* Same comparison on the RECIPE bulk-load workloads: real data-structure
   recoveries, so the pre/recovery ratio is less extreme than the sweep's —
   the interesting column is still "identical". *)
let snapshot_recipe () =
  section_header "Snapshot: RECIPE workloads (snapshot off vs on)";
  Format.printf "%-12s %8s %10s %10s %9s %s@." "Benchmark" "exec" "off" "on" "speedup"
    "identical";
  List.iter
    (fun (benchmark, n) ->
      let scn = Recipe.Workloads.fixed_scenario benchmark n in
      let run snapshot =
        let config = { Config.default with Config.max_steps = 200_000; snapshot } in
        let t0 = Unix.gettimeofday () in
        let o = Explorer.run ~config scn in
        (o, Unix.gettimeofday () -. t0)
      in
      let o_off, t_off = run false in
      let o_on, t_on = run true in
      let identical = same_outcome o_off o_on in
      Format.printf "%-12s %8d %9.2fs %9.2fs %8.2fx %s@." benchmark
        o_off.Explorer.stats.Stats.executions t_off t_on (t_off /. t_on)
        (if identical then "yes" else "NO");
      assert identical)
    fig14_sizes

let snapshot_bench ~smoke =
  let sizes = if smoke then [ 32; 64 ] else [ 64; 128; 256; 512 ] in
  let speedups = snapshot_sweep sizes in
  if not smoke then snapshot_recipe ();
  let best = List.fold_left max 0. speedups in
  Format.printf "@.best sweep speedup: %.2fx%s@." best
    (if best >= 2. then " (>= 2x pre-failure reduction)" else "");
  (* The full run must demonstrate the >= 2x reduction; the smoke run only
     guards the byte-identity asserts and that the layer engages at all. *)
  if not smoke then assert (best >= 2.)

(* --- checkpoint / resume --------------------------------------------------------- *)

(* Survivability layer (Config.wall_budget + Explorer.run ~checkpoint/~resume):
   a run that trips its wall-clock budget stops cooperatively, writes the
   unexplored frontier to the checkpoint file, and a resumed run continues
   from exactly that frontier. Chaining budget-limited sessions to completion
   must produce an outcome byte-identical to one uninterrupted run; the
   interesting numbers are how many sessions the chain needed and what the
   save/load/re-validate overhead cost relative to the straight run. *)
let checkpoint_bench ~smoke =
  section_header "Checkpoint: wall-budget interrupt/resume chain vs uninterrupted run";
  (* A deep tree (two nested failures over a real PMDK case) so the budget
     has something to interrupt; the seeded bug is still found, exercising
     report merging across sessions. *)
  let case = List.hd (Pmdk.Workloads.fig12_cases ()) in
  let scn = case.Case.scenario in
  let base_config =
    { case.Case.config with Config.max_failures = 2; stop_at_first_bug = false }
  in
  (* Warm-up exploration so the baseline timing doesn't charge first-run
     costs (code paths, GC heap growth) that the chain then gets for free. *)
  ignore (Explorer.run ~config:base_config scn);
  let t0 = Unix.gettimeofday () in
  let baseline = Explorer.run ~config:base_config scn in
  let t_base = Unix.gettimeofday () -. t0 in
  let path = Filename.temp_file "jaaru-bench" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let budget = min 0.25 (max 0.01 (t_base /. if smoke then 6. else 12.)) in
      let config = { base_config with Config.wall_budget = Some budget } in
      let t0 = Unix.gettimeofday () in
      let sessions = ref 1 in
      let o = ref (Explorer.run ~config ~checkpoint:path scn) in
      while !o.Explorer.stats.Stats.interrupted do
        incr sessions;
        (* Safety net: if the budget is too tight to make progress on this
           host, finish the tail of the chain without one. *)
        let config =
          if !sessions > 50 then { config with Config.wall_budget = None } else config
        in
        o := Explorer.run ~config ~resume:(Checkpoint.load path) ~checkpoint:path scn
      done;
      let t_chain = Unix.gettimeofday () -. t0 in
      let identical = same_outcome baseline !o in
      Format.printf "%-14s %10s %12s %10s %s@." "sessions" "baseline" "chain" "overhead"
        "identical";
      Format.printf "%-14d %9.2fs %11.2fs %9.1f%% %s@." !sessions t_base t_chain
        (100. *. ((t_chain /. t_base) -. 1.))
        (if identical then "yes" else "NO");
      assert identical;
      (* The chain must actually have been interrupted at least once, or the
         section proved nothing about resume. *)
      assert (!sessions > 1))

(* --- ablations ----------------------------------------------------------------- *)

(* Constraint refinement and lazy enumeration vs. eager exploration: an
   unflushed array of n 64-bit integers (the paper's 9^(n/8) example). With a
   commit store guarding the data, Jaaru's executions grow linearly in n;
   the eager baseline grows exponentially. *)
let ablation_lazy_vs_eager () =
  section_header "Ablation: lazy (Jaaru) vs eager (Yat) on an unflushed n-int array";
  Format.printf "%-6s %12s %14s %18s@." "n" "Jaaru exec" "eager states" "eager (analytic)";
  List.iter
    (fun n ->
      let base = 0x1000 in
      let pre ctx =
        for i = 0 to n - 1 do
          Ctx.store64 ctx ~label:"init" (base + (8 * i)) (i + 1)
        done
        (* no flush: the crash happens with everything in cache *)
      in
      let post ctx =
        let sum = ref 0 in
        for i = 0 to n - 1 do
          sum := !sum + Ctx.load64 ctx ~label:"read" (base + (8 * i))
        done;
        Printf.sprintf "%d" !sum
      in
      let o =
        Explorer.run (Explorer.scenario ~name:"array" ~pre ~post:(fun ctx -> ignore (post ctx)))
      in
      let eager = Yat.Eager.check ~state_limit:100_000 ~pre ~post () in
      let yat = Yat.State_count.analyze pre in
      Format.printf "%-6d %12d %13d%s %18s@." n o.Explorer.stats.Stats.executions
        eager.Yat.Eager.states
        (if eager.Yat.Eager.truncated then "+" else "")
        (Format.asprintf "%a" Yat.State_count.pp_count yat.Yat.State_count.log10_total))
    [ 2; 4; 8; 16; 24 ]

(* The commit-store insight (paper section 3.2): guarded recovery reads keep
   the number of explored executions per failure point constant; unguarded
   reads of k unflushed cache lines explore 2^k executions. *)
let ablation_commit_store () =
  section_header "Ablation: commit store vs blind recovery reads";
  Format.printf "%-8s %18s %18s@." "lines" "guarded exec" "blind exec";
  List.iter
    (fun k ->
      let base = 0x1000 in
      let data_base = 0x1100 in
      let pre ctx =
        for i = 0 to k - 1 do
          Ctx.store64 ctx ~label:"data" (data_base + (64 * i)) (i + 100)
        done;
        Ctx.clflush ctx ~label:"flush data" data_base (64 * k);
        Ctx.sfence ctx ~label:"fence" ();
        Ctx.store64 ctx ~label:"commit" base 1;
        Ctx.clflush ctx ~label:"flush commit" base 8
      in
      let guarded ctx =
        if Ctx.load64 ctx ~label:"read commit" base = 1 then
          for i = 0 to k - 1 do
            ignore (Ctx.load64 ctx ~label:"read data" (data_base + (64 * i)))
          done
      in
      let blind ctx =
        for i = 0 to k - 1 do
          ignore (Ctx.load64 ctx ~label:"read data blind" (data_base + (64 * i)))
        done
      in
      let run post = (Explorer.run (Explorer.scenario ~name:"cs" ~pre ~post)).Explorer.stats in
      Format.printf "%-8d %18d %18d@." k (run guarded).Stats.executions
        (run blind).Stats.executions)
    [ 1; 2; 4; 6; 8 ]

(* Scaling sweep: Jaaru's executions grow polynomially with workload size
   while the eager count grows exponentially — the crossover argument behind
   the paper's complexity claim (section 3.2). One series per benchmark,
   like a figure. *)
let ablation_scaling () =
  section_header "Ablation: workload-size scaling (Jaaru executions vs eager states)";
  Format.printf "%-12s %6s %10s %10s %18s@." "Benchmark" "n" "JExec" "FPoints" "eager states";
  List.iter
    (fun benchmark ->
      List.iter
        (fun n ->
          let scn = Recipe.Workloads.fixed_scenario benchmark n in
          let config = { Config.default with Config.max_steps = 200_000 } in
          let o = Explorer.run ~config scn in
          let yat = Yat.State_count.analyze ~config (fun ctx -> scn.Explorer.pre ctx) in
          Format.printf "%-12s %6d %10d %10d %18s@." benchmark n
            o.Explorer.stats.Stats.executions o.Explorer.stats.Stats.failure_points
            (Format.asprintf "%a" Yat.State_count.pp_count yat.Yat.State_count.log10_total))
        [ 2; 4; 8; 16 ])
    [ "CCEH"; "FAST_FAIR"; "P-BwTree" ]

(* Multi-failure depth: the paper's command-line option bounding the exec
   stack. Each extra failure multiplies the scenario space. *)
let ablation_multi_failure () =
  section_header "Ablation: failure-scenario depth (max_failures)";
  Format.printf "%-14s %12s %12s@." "max_failures" "executions" "wall time";
  List.iter
    (fun depth ->
      let scn = Recipe.Workloads.fixed_scenario "P-CLHT" 2 in
      let config = { Config.default with Config.max_failures = depth; Config.max_steps = 200_000 } in
      let t0 = Unix.gettimeofday () in
      let o = Explorer.run ~config scn in
      let dt = Unix.gettimeofday () -. t0 in
      assert (not (Explorer.found_bug o));
      Format.printf "%-14d %12d %11.2fs@." depth o.Explorer.stats.Stats.executions dt)
    [ 0; 1; 2 ]

(* Eviction-policy cost: the Buffered policy adds drain decisions at every
   injected failure. *)
let ablation_evict_policy () =
  section_header "Ablation: eviction policy (eager vs buffered store buffers)";
  Format.printf "%-10s %12s %14s@." "policy" "executions" "rf decisions";
  List.iter
    (fun (name, policy) ->
      let base = 0x1000 in
      let pre ctx =
        for i = 0 to 3 do
          Ctx.store64 ctx ~label:"w" (base + (64 * i)) (i + 1);
          Ctx.clflush ctx ~label:"f" (base + (64 * i)) 8;
          Ctx.sfence ctx ~label:"s" ()
        done
      in
      let post ctx =
        for i = 0 to 3 do
          ignore (Ctx.load64 ctx ~label:"r" (base + (64 * i)))
        done
      in
      let config = { Config.default with Config.evict_policy = policy } in
      let o = Explorer.run ~config (Explorer.scenario ~name:"ev" ~pre ~post) in
      Format.printf "%-10s %12d %14d@." name o.Explorer.stats.Stats.executions
        o.Explorer.stats.Stats.rf_decisions)
    [ ("eager", Config.Eager); ("buffered", Config.Buffered) ]

(* The skip-if-no-writes failure-point optimisation. *)
let ablation_fp_optimization () =
  section_header "Ablation: failure points with vs without the no-writes-skip optimisation";
  let base = 0x1000 in
  let pre ctx =
    Ctx.store64 ctx ~label:"w" base 1;
    (* A burst of flushes with no intervening writes: only the first is a
       useful failure point. *)
    for _ = 1 to 8 do
      Ctx.clflush ctx ~label:"redundant flush" base 8
    done;
    Ctx.store64 ctx ~label:"w2" (base + 64) 2;
    Ctx.clflush ctx ~label:"flush 2" (base + 64) 8
  in
  let o = Explorer.run (Explorer.scenario ~name:"fp-opt" ~pre ~post:(fun _ -> ())) in
  Format.printf "flush instructions executed: 10; failure points explored: %d@."
    o.Explorer.stats.Stats.failure_points;
  Format.printf "(without the optimisation every flush would be a failure point)@."

let ablations () =
  ablation_lazy_vs_eager ();
  ablation_commit_store ();
  ablation_fp_optimization ();
  ablation_scaling ();
  ablation_multi_failure ();
  ablation_evict_policy ()

(* --- hot byte ------------------------------------------------------------------- *)

(* Recovery loads from a line whose store history is long and lopsided: byte
   0 of the line stored [stores] times, a word store to one of words 1-6
   after every tenth, and word 7 (the cold word) stored once, first. Half
   way, the line is flushed and a snapshot view of the record is taken; at
   the end it is flushed again and the execution crashes, so every load
   below has one candidate. The loads read the hot byte and the cold word
   through the live record and through the view (the failed execution of a
   context resumed from a snapshot of it). ns/load is the median of five
   timed batches. *)
let hot_byte_bench ~stores ~loads =
  section_header
    (Printf.sprintf "Hot byte: recovery loads on a line with one byte stored %d times" stores);
  let config =
    { Config.default with Config.max_failures = 0; max_steps = max_int; trace_depth = 0 }
  in
  let choice = Choice.create () in
  Choice.begin_replay choice;
  let ctx = Ctx.create ~config ~choice () in
  let stack = Ctx.exec_stack ctx in
  let line = config.Config.region_base + 64 in
  let hot = line and cold = line + 56 and cold_value = 0x0123456789abcdef in
  Ctx.store64 ctx cold cold_value;
  let view = ref None in
  for i = 1 to stores do
    Ctx.store8 ctx hot (i land 0xff);
    if i mod 10 = 0 then Ctx.store64 ctx (line + (8 * (1 + (i / 10 mod 6)))) i;
    if i = stores / 2 then begin
      Ctx.clflush ctx line 64;
      view :=
        Some
          (Exec.Exec_record.snapshot_view ~bound:(Exec.Exec_stack.cur_seq stack)
             (Exec.Exec_stack.top stack))
    end
  done;
  Ctx.clflush ctx line 64;
  (try Ctx.crash ctx with Ctx.Power_failure -> ());
  Ctx.after_crash ctx;
  let ns_per_load ctx load addr =
    let batch () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to loads do
        ignore (load ctx addr)
      done;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int loads
    in
    let times = List.sort compare (List.init 5 (fun _ -> batch ())) in
    List.nth times 2
  in
  let row ctx record ~hot_value =
    let load8 ctx a = Ctx.load8 ctx a and load64 ctx a = Ctx.load64 ctx a in
    assert (load8 ctx hot = hot_value);
    assert (load64 ctx cold = cold_value);
    Format.printf "%-8s %12.1f %13.1f@." record (ns_per_load ctx load8 hot)
      (ns_per_load ctx load64 cold)
  in
  Format.printf "%-8s %12s %13s@." "record" "load8 hot" "load64 cold";
  row ctx "live" ~hot_value:(stores land 0xff);
  (* The view's row: a context resumed from a snapshot whose failed
     execution is the view. *)
  let snap =
    Snapshot.capture ~point:(Choice.point choice)
      ~stack:
        (Exec.Exec_stack.of_records ~seq:(Exec.Exec_stack.cur_seq stack)
           [ Option.get !view; Exec.Exec_stack.nth stack 0 ])
      ~threads:[] ~trace:(Trace.create ~depth:0) ~failure_count:0 ~fp_count:0 ~rng:0 ~last:""
      ~crash_label:None
  in
  let choice = Choice.create () in
  Choice.begin_replay choice;
  let resumed = Ctx.create ~resume:snap ~config ~choice () in
  Ctx.after_crash resumed;
  row resumed "view" ~hot_value:(stores / 2 land 0xff);
  Format.printf "(ns per recovery load, median of 5 batches of %d)@." loads

(* --- per-operation costs ------------------------------------------------------ *)

(* ns per instruction through [Ctx], as a program under test issues it. Each
   figure is the median of five batches; a batch runs [rounds] rounds of [k]
   operations and times only the operations. Every round starts, untimed, on
   a fresh recovery context (the pre-failure execution stored and flushed
   one line, then crashed), so store logs stay as short as a replay's, plus
   whatever makes the operation the common useful case: a clflush flushes a
   line stored to since its last flush, a forwarded load has its store
   buffered, a deep-buffer load has 48 stores buffered. The trace ring keeps
   its default depth, as under [jaaru check --trace], and the always-on
   redundant pass runs. An sfence with nothing
   pending is flagged redundant, so the sfence row is a store64+sfence pair
   less the store64 row. *)
let ops_bench ~rounds ~k =
  section_header "Per-operation cost through Ctx (recovery context)";
  let base = Config.default.Config.region_base and stored = 0x0123456789abcdef in
  let recovery_ctx evict_policy =
    let config =
      { Config.default with Config.evict_policy; max_failures = 0; max_steps = max_int }
    in
    let choice = Choice.create () in
    Choice.begin_replay choice;
    let ctx = Ctx.create ~config ~choice () in
    Ctx.store64 ctx base stored;
    Ctx.clflush ctx base 8;
    Ctx.mfence ctx ();
    (try Ctx.crash ctx with Ctx.Power_failure -> ());
    Ctx.after_crash ctx;
    ctx
  in
  let ns_per_op policy ?(prepare = ignore) op =
    let batch () =
      let t = ref 0. in
      for _ = 1 to rounds do
        let ctx = recovery_ctx policy in
        prepare ctx;
        (* Empty the minor heap, so the timed operations do not pay for
           collecting the set-up's allocation. *)
        Gc.minor ();
        let t0 = Unix.gettimeofday () in
        for i = 0 to k - 1 do
          op ctx i
        done;
        t := !t +. (Unix.gettimeofday () -. t0)
      done;
      !t *. 1e9 /. float_of_int (rounds * k)
    in
    let times = List.sort compare (List.init 5 (fun _ -> batch ())) in
    List.nth times 2
  in
  (* Stores go to 16 lines past the crashed one, 8 words each; flushes to
     [k] distinct lines. *)
  let word i = base + (64 * (1 + (i land 15))) + (8 * ((i lsr 4) land 7)) in
  let line i = base + (64 * (1 + i)) in
  let store64 ctx i = Ctx.store64 ctx (word i) i in
  let dirty_lines ctx =
    for i = 0 to k - 1 do
      Ctx.store64 ctx (line i) i
    done;
    Ctx.mfence ctx ()
  in
  let clflush ctx i = Ctx.clflush ctx (line i) 8 in
  let row policy op ns = Format.printf "%-9s %-24s %8.1f@." policy op ns in
  Format.printf "%-9s %-24s %8s@." "policy" "operation" "ns/op";
  let buffered = Config.Buffered in
  let store_ns = ns_per_op buffered store64 in
  row "buffered" "store64" store_ns;
  row "buffered" "load64 forwarded"
    (ns_per_op buffered
       ~prepare:(fun ctx -> Ctx.store64 ctx (word 0) 42)
       (fun ctx _ -> assert (Ctx.load64 ctx (word 0) = 42)));
  row "buffered" "load64 empty buffer"
    (ns_per_op buffered (fun ctx _ -> assert (Ctx.load64 ctx base = stored)));
  (* 48 buffered stores to consecutive words; a load finds its word's store
     [back] entries from the newest, or no buffered store at all. *)
  let deep = 48 in
  let deep_word j = base + 64 + (8 * j) in
  let fill ctx =
    for j = 0 to deep - 1 do
      Ctx.store64 ctx (deep_word j) (j + 1)
    done
  in
  List.iter
    (fun back ->
      let j = deep - back in
      row "buffered"
        (Printf.sprintf "load64 48-deep, %d back" back)
        (ns_per_op buffered ~prepare:fill (fun ctx _ ->
             assert (Ctx.load64 ctx (deep_word j) = j + 1))))
    [ 1; 16 ];
  row "buffered" "load64 48-deep, absent"
    (ns_per_op buffered ~prepare:fill (fun ctx _ -> assert (Ctx.load64 ctx (deep_word deep) = 0)));
  row "buffered" "clflush" (ns_per_op buffered ~prepare:dirty_lines clflush);
  row "buffered" "sfence"
    (ns_per_op buffered (fun ctx i ->
         store64 ctx i;
         Ctx.sfence ctx ())
    -. store_ns);
  row "eager" "store64" (ns_per_op Config.Eager store64);
  row "eager" "clflush" (ns_per_op Config.Eager ~prepare:dirty_lines clflush);
  Format.printf "(ns per operation, median of 5 batches of %d)@." (rounds * k)

(* --- driver -------------------------------------------------------------------- *)

let () =
  let sections = List.tl (Array.to_list Sys.argv) in
  let want s = sections = [] || List.mem s sections in
  if want "table1" then table1 ();
  if want "table2" then table2 ();
  let pmdk_rows = if want "fig12" || want "fig16" then fig12 () else [] in
  let recipe_rows = if want "fig13" || want "fig15" then fig13 () else [] in
  if want "fig15" then manifestation_table "Figure 15: RECIPE bug manifestations" recipe_rows;
  if want "fig16" then manifestation_table "Figure 16: PMDK bug manifestations" pmdk_rows;
  if want "fig14" then fig14 ();
  if want "analysis" then analysis_overhead ();
  if want "snapshot" then snapshot_bench ~smoke:false;
  (* snapshot-smoke is opt-in only (CI): a seconds-long subset of the
     snapshot section that still exercises the byte-identity asserts. *)
  if List.mem "snapshot-smoke" sections then snapshot_bench ~smoke:true;
  if want "checkpoint" then checkpoint_bench ~smoke:false;
  (* checkpoint-smoke is opt-in only (CI), like snapshot-smoke. *)
  if List.mem "checkpoint-smoke" sections then checkpoint_bench ~smoke:true;
  if want "ablation" then ablations ();
  if want "hot-byte" then hot_byte_bench ~stores:10_000 ~loads:200_000;
  (* hot-byte-smoke is opt-in only (CI): a small run with no timing check. *)
  if List.mem "hot-byte-smoke" sections then hot_byte_bench ~stores:1_000 ~loads:1_000;
  if want "ops" then ops_bench ~rounds:400 ~k:256;
  (* ops-smoke is opt-in only (CI): a small run with no timing check. *)
  if List.mem "ops-smoke" sections then ops_bench ~rounds:2 ~k:16
