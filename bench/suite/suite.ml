(* The macro benchmark suite: end-to-end wall time of the real jaaru CLI on
   a fixed set of workloads, plus a traced in-library run per workload that
   says where the time goes. See README.md for the workloads, the metrics
   and how to compare two builds.

     suite.exe bench --workload W --seed N --seconds S --trace 0|1
         one benchmark run; the last stdout line is the JSON result
     suite.exe run [--seed N] [--runs R] [--workload W]...
         every workload, R untraced runs and one traced run each
     suite.exe compare --base DIR --head DIR [--pairs N] [--workload W]...
         alternating-order runs of two built checkouts, with verdicts
     suite.exe smoke ...
         the harness smoke dune runtest runs *)

open Cmdliner

let schema = "jaaru-bench-suite/1"

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (k, v) ->
         (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (Measure.unit_of k)) ]))
       metrics)

let print_metric oc (k, v) = Printf.fprintf oc "  %-36s %16.6f %s\n" k v (Measure.unit_of k)

let fail_frac ~attempted ~failed =
  if attempted = 0 then 0. else float_of_int failed /. float_of_int attempted

let strings l = Json.Arr (List.map (fun s -> Json.Str s) l)

(* --- bench: one run, as the benchmark contract defines it ----------------------- *)

let bench (cfg : Measure.config) workload seconds trace =
  match Workloads.find workload with
  | None ->
      Printf.eprintf "unknown workload %S\n" workload;
      2
  | Some w ->
      Proc.set_tmpdir cfg.out;
      let log = Proc.open_log (Filename.concat cfg.out (w.name ^ ".stderr")) in
      let load0 = Proc.loadavg () in
      let attempted, failed, failures, metrics, extra, detail =
        if trace then begin
          (try Sys.remove (Filename.concat cfg.out "spans.jsonl") with Sys_error _ -> ());
          let l = Measure.layers cfg ~stderr:log w in
          (l.l_attempted, l.l_failed, l.l_failures, l.per_layer, l.extra, l.l_detail)
        end
        else
          let m = Measure.measure cfg ~seconds ~stderr:log w in
          let extra =
            [ ("report_drift", float_of_int m.drift); ("passes", float_of_int m.passes) ]
          in
          (m.attempted, m.failed, m.failures, m.metrics, extra, m.detail)
      in
      Unix.close log;
      let correct = failures = [] in
      Proc.write_file (Filename.concat cfg.out "results.json")
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.Str schema);
                ("workload", Json.Str w.name);
                ("seed", Json.int cfg.seed);
                ("seconds", Json.Num seconds);
                ("trace", Json.Bool trace);
                ("host", Proc.host ());
                ("loadavg_start", Json.Str load0);
                ("loadavg_end", Json.Str (Proc.loadavg ()));
                ("attempted", Json.int attempted);
                ("failed", Json.int failed);
                ("fail_frac", Json.Num (fail_frac ~attempted ~failed));
                ("failures", strings failures);
                ("metrics", metrics_json metrics);
                ("extra", metrics_json extra);
                ("detail", detail);
              ]));
      Printf.eprintf "%s (%s):\n" w.name (if trace then "traced" else "end to end");
      List.iter (print_metric stderr) (metrics @ extra);
      List.iter (Printf.eprintf "FAILED %s\n") failures;
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool correct);
                ("attempted", Json.int attempted);
                ("failed", Json.int failed);
                ("metrics", metrics_json metrics);
              ]));
      if correct then 0 else 1

(* --- run: the whole suite, one set ---------------------------------------------- *)

let values name (e2e : Measure.e2e list) =
  List.map (fun (m : Measure.e2e) -> List.assoc name m.metrics) e2e

let summary vs =
  let q1, q3 = Proc.quartiles vs in
  Json.Obj
    [
      ("median", Json.Num (Proc.median vs));
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("n", Json.int (List.length vs));
      ("samples", Json.Arr (List.map (fun v -> Json.Num v) vs));
    ]

let run_suite (cfg : Measure.config) runs names seconds =
  let find n =
    match Workloads.find n with Some w -> w | None -> failwith ("unknown workload " ^ n)
  in
  let workloads = if names = [] then Workloads.all else List.map find names in
  Proc.set_tmpdir cfg.out;
  (try Sys.remove (Filename.concat cfg.out "spans.jsonl") with Sys_error _ -> ());
  let log = Proc.open_log (Filename.concat cfg.out "run.stderr") in
  let nproc = Proc.nproc () in
  let sets =
    List.map
      (fun (w : Workloads.t) ->
        let load0 = Proc.loadavg () in
        Printf.eprintf "%s: %d untraced run(s)...\n%!" w.name runs;
        let e2e = List.init (max 1 runs) (fun _ -> Measure.measure cfg ~seconds ~stderr:log w) in
        Printf.eprintf "%s: traced run...\n%!" w.name;
        let l = Measure.layers cfg ~stderr:log w in
        (w, e2e, l, load0, Proc.loadavg ()))
      workloads
  in
  Unix.close log;
  let wall name =
    List.find_map
      (fun ((w : Workloads.t), e2e, _, _, _) ->
        if w.name = name then Some (Proc.median (values "wall_s" e2e)) else None)
      sets
  in
  (* conc-par2 and conc-fleet2 must report exactly what this set's
     conc-verify reported. *)
  let report wl =
    Json.read_file
      (Filename.concat cfg.out (Printf.sprintf "reports/%s/%s.report" wl Workloads.concurrent_case))
  in
  let cross_failures =
    match report "conc-verify" with
    | exception Sys_error _ -> []
    | reference ->
        List.filter_map
          (fun wl ->
            match report wl with
            | r when r = reference -> None
            | _ -> Some (wl ^ ": report differs from this set's conc-verify report")
            | exception Sys_error _ -> None)
          [ "conc-par2"; "conc-fleet2" ]
  in
  let cross =
    let ratio name a b =
      match (wall a, wall b) with Some x, Some y -> [ (name, x /. y) ] | _ -> []
    in
    ratio "explorer.par_speedup" "conc-verify" "conc-par2"
    @ ratio "coordinator.speedup" "conc-verify" "conc-fleet2"
  in
  let failures = ref cross_failures in
  let workload_json ((w : Workloads.t), e2e, (l : Measure.layers), load0, load1) =
    let total f = List.fold_left (fun a m -> a + f m) 0 e2e in
    let attempted = total (fun m -> m.Measure.attempted)
    and failed = total (fun m -> m.Measure.failed) in
    let drift = total (fun m -> m.Measure.drift) in
    let outputs = List.sort_uniq compare (List.filter_map (fun m -> m.Measure.pbt_stdout) e2e) in
    failures :=
      !failures
      @ List.concat_map (fun (m : Measure.e2e) -> m.failures) e2e
      @ l.l_failures
      @
      if List.length outputs > 1 then [ w.name ^ ": pbt stdout differs between the set's runs" ]
      else [];
    let unresolved = nproc < 2 && (w.name = "conc-par2" || w.name = "conc-fleet2") in
    Printf.printf "\n%s%s\n" w.name (if unresolved then " (unresolved: fewer than 2 CPUs)" else "");
    let names = List.map fst (List.hd e2e).metrics in
    List.iter
      (fun n ->
        let vs = values n e2e in
        let q1, q3 = Proc.quartiles vs in
        Printf.printf "  %-36s %16.6f %-6s [q1 %.6f, q3 %.6f, n=%d]\n" n (Proc.median vs)
          (Measure.unit_of n) q1 q3 (List.length vs))
      names;
    Printf.printf "  %-36s %16.6f %-6s (%d/%d)\n" "fail_frac" (fail_frac ~attempted ~failed) "ratio"
      failed attempted;
    Printf.printf "  %-36s %16d %s\n" "report_drift" drift "count";
    List.iter (print_metric stdout) (l.per_layer @ l.extra);
    ( w.name,
      Json.Obj
        [
          ("why", Json.Str w.why);
          ("loadavg_start", Json.Str load0);
          ("loadavg_end", Json.Str load1);
          ("unresolved", Json.Bool unresolved);
          ("attempted", Json.int attempted);
          ("failed", Json.int failed);
          ("fail_frac", Json.Num (fail_frac ~attempted ~failed));
          ("report_drift", Json.int drift);
          ("end_to_end", Json.Obj (List.map (fun n -> (n, summary (values n e2e))) names));
          ("per_layer", metrics_json l.per_layer);
          ("extra", metrics_json l.extra);
          ("traced_run", l.l_detail);
        ] )
  in
  let per_workload = List.map workload_json sets in
  print_newline ();
  List.iter (print_metric stdout) cross;
  List.iter (Printf.printf "FAILED %s\n") !failures;
  let results = Filename.concat cfg.out "results.json" in
  Proc.write_file results
    (Json.to_string
       (Json.Obj
          [
            ("schema", Json.Str schema);
            ("seed", Json.int cfg.seed);
            ("runs", Json.int runs);
            ("host", Proc.host ());
            ("workloads", Json.Obj per_workload);
            ("cross", metrics_json cross);
            ("failures", strings !failures);
          ]));
  Printf.printf "wrote %s and %s\n" results (Filename.concat cfg.out "spans.jsonl");
  if !failures = [] then 0 else 1

(* --- command line ------------------------------------------------------------------ *)

let opt_arg c default name docv doc = Arg.(value & opt c default & info [ name ] ~docv ~doc)

let cfg_t =
  let cli =
    opt_arg Arg.string "_build/default/bin/jaaru_cli.exe" "cli" "PATH" "The jaaru CLI under test"
  and out = opt_arg Arg.string "bench/suite/_out" "out" "DIR" "Where results, reports and spans go"
  and golden =
    opt_arg Arg.string "bench/suite/golden" "golden" "DIR" "Committed symptom sets and reports"
  and seed = opt_arg Arg.int 9 "seed" "N" "Seed of the generated inputs (pbt-sweep)" in
  Term.(
    const (fun cli out golden seed -> { Measure.cli; out; golden; seed })
    $ cli $ out $ golden $ seed)

let workloads_arg =
  Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"NAME" ~doc:"Only this workload")

(* How long one run measures is the benchmark's own run_seconds. *)
let run_seconds () = Json.num "run_seconds" (Json.of_file "BENCHMARK.json")

let required name c = Arg.(required & opt (some c) None & info [ name ])

let bench_cmd =
  let trace = opt_arg (Arg.enum [ ("0", false); ("1", true) ]) false "trace" "0|1" "Traced run" in
  let seconds =
    opt_arg Arg.(some float) None "seconds" "S"
      "How long the run measures (default: BENCHMARK.json's run_seconds); one pass always runs"
  in
  let bench cfg workload seconds trace =
    bench cfg workload (match seconds with Some s -> s | None -> run_seconds ()) trace
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"One benchmark run of one workload")
    Term.(const bench $ cfg_t $ required "workload" Arg.string $ seconds $ trace)

let run_cmd =
  let runs = opt_arg Arg.int 5 "runs" "R" "Untraced runs per workload" in
  let run_suite cfg runs names = run_suite cfg runs names (run_seconds ()) in
  Cmd.v
    (Cmd.info "run" ~doc:"Every workload: untraced runs and one traced run each")
    Term.(const run_suite $ cfg_t $ runs $ workloads_arg)

let inlib_cmd =
  let run (cfg : Measure.config) workload variant =
    match Workloads.find workload with
    | None -> 2
    | Some w ->
        Inlib.child ~cli:cfg.cli ~out:cfg.out ~seed:cfg.seed w variant;
        0
  in
  Cmd.v
    (Cmd.info "inlib" ~doc:"Internal: one in-library variant, summary as JSON on stdout")
    Term.(
      const run $ cfg_t
      $ required "workload" Arg.string
      $ required "variant" (Arg.enum Inlib.variants))

let compare_cmd =
  let pairs = opt_arg Arg.int 10 "pairs" "N" "Alternating-order pairs per workload" in
  let seed = opt_arg Arg.int 9 "seed" "N" "Seed of the first pair; pair i uses seed + i" in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare two built checkouts against the BENCHMARK.json bounds")
    Term.(
      const Compare.run $ required "base" Arg.dir $ required "head" Arg.dir $ pairs $ workloads_arg
      $ seed)

let smoke_cmd =
  let benchmark = opt_arg Arg.file "BENCHMARK.json" "benchmark" "FILE" "The file to validate" in
  Cmd.v
    (Cmd.info "smoke" ~doc:"Harness smoke: BENCHMARK.json, spans.jsonl and a negative control")
    Term.(const Smoke.run $ cfg_t $ benchmark)

let () =
  let info = Cmd.info "suite" ~doc:"Macro benchmark suite for jaaru" in
  exit (Cmd.eval' (Cmd.group info [ bench_cmd; run_cmd; compare_cmd; smoke_cmd; inlib_cmd ]))
