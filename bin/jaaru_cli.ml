(* The jaaru command-line tool: list the bundled benchmarks, model check one
   of them, or compute the eager (Yat) state count for its workload. *)

open Cmdliner

let all_cases () =
  Pmdk.Workloads.fig12_cases () @ Pmdk.Workloads.fixed_cases () @ Pmdk.Workloads.checksum_cases ()
  @ Pmdk.Workloads.skiplist_cases () @ Recipe.Workloads.fig13_cases ()
  @ Recipe.Workloads.fixed_cases () @ Recipe.Workloads.concurrent_cases ()

let find_case id =
  match Jaaru.Case.find (all_cases ()) id with
  | c -> Ok c
  | exception Not_found -> Error (`Msg (Printf.sprintf "unknown case %S; try `jaaru list'" id))

(* Whether a finished `check', `fleet' or `fuzz' run met its case. *)
let verdict c bugs = Result.map_error (fun m -> `Msg m) (Jaaru.Case.verdict c bugs)

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let doc = "List the bundled model-checking cases" in
  let run () =
    Format.printf "%-26s %-16s %-8s %s@." "ID" "BENCHMARK" "SEEDED" "DESCRIPTION";
    List.iter
      (fun (c : Jaaru.Case.t) ->
        Format.printf "%-26s %-16s %-8s %s@." c.id c.benchmark
          (match c.expected_symptom with Some _ -> "bug" | None -> "clean")
          c.description)
      (all_cases ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- check --------------------------------------------------------------- *)

let id_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CASE" ~doc:"Case id (see `jaaru list')")

(* Numeric flags whose out-of-range values would crash or silently misbehave
   further in are rejected at parse time: cmdliner exits 124 and names the
   flag. *)
let restrict conv ~ok ~expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let non_negative_int = restrict Arg.int ~ok:(fun n -> n >= 0) ~expected:"a non-negative integer"
let positive conv ~zero = restrict conv ~ok:(fun v -> v > zero) ~expected:"a positive number"

let max_failures_arg =
  Arg.(
    value
    & opt (some non_negative_int) None
    & info [ "max-failures" ] ~docv:"N" ~doc:"Maximum number of injected power failures")

let max_steps_arg =
  Arg.(
    value
    & opt (some (positive int ~zero:0)) None
    & info [ "max-steps" ] ~docv:"N" ~doc:"Per-execution step budget (loop detection)")

let jobs_arg =
  Arg.(
    value
    & opt (positive int ~zero:0) 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Explore the choice tree with $(docv) parallel OCaml domains. Exhaustive runs report \
           identical results for every value; only wall time changes.")

let exhaustive_arg =
  Arg.(
    value & flag
    & info [ "exhaustive" ]
        ~doc:"Keep exploring after the first bug (bug cases stop early by default)")

let multi_rf_arg =
  Arg.(
    value & flag
    & info [ "show-multi-rf" ]
        ~doc:"Print the loads that could read from more than one store (missing-flush debugging aid)")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print the event trace of each reported bug. Traces are recorded only under this \
           option; without it the trace ring is off and reports are otherwise identical.")

let snapshot_arg =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) true
    & info [ "snapshot" ] ~docv:"on|off"
        ~doc:
          "Failure-point snapshot/resume: replays of a crash subtree restore the captured \
           pre-failure state instead of re-executing the pre-failure program. Outcomes are \
           identical either way; off is a debugging/benchmarking aid.")

let analyze_arg =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "Run the persistency analysis passes alongside exploration and print their findings \
           (missing flush/fence root causes, torn writes, redundant flushes)")

let wall_budget_arg =
  Arg.(
    value
    & opt (some (positive float ~zero:0.)) None
    & info [ "wall-budget" ] ~docv:"SEC"
        ~doc:
          "Stop the run cooperatively after $(docv) seconds of wall clock: workers finish their \
           current replay, the partial report is printed flagged as interrupted, and the \
           unexplored frontier is saved when $(b,--checkpoint) is given.")

let step_deadline_arg =
  Arg.(
    value
    & opt (some (positive float ~zero:0.)) None
    & info [ "step-deadline" ] ~docv:"SEC"
        ~doc:
          "Cancel any single execution that runs longer than $(docv) seconds, recording it as an \
           execution-timeout bug — catches workloads that diverge while issuing operations too \
           slowly for $(b,--max-steps) to notice. The exploration itself continues.")

let mem_budget_arg =
  Arg.(
    value
    & opt (some (positive int ~zero:0)) None
    & info [ "mem-budget" ] ~docv:"MB"
        ~doc:
          "Soft memory budget in megabytes: when the OCaml heap exceeds it, workers shed their \
           snapshot caches (correct but slower — the run never aborts).")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Periodically (and at every stop, including completion) save the exploration state to \
           $(docv), atomically; continue it later with $(b,--resume).")

let checkpoint_every_arg =
  Arg.(
    value
    & opt (positive float ~zero:0.) 30.
    & info [ "checkpoint-every" ] ~docv:"SEC"
        ~doc:"Seconds between periodic checkpoints (with $(b,--checkpoint); default 30)")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Continue the exploration saved in $(docv). The checkpoint's workload and configuration \
           fingerprint must match this invocation ($(b,--jobs), $(b,--snapshot) and the \
           budgets may differ; tree-shaping flags may not). The finished run reports exactly \
           what an uninterrupted run would. Implies checkpointing back to the same file unless \
           $(b,--checkpoint) names another.")

let report_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-out" ] ~docv:"FILE"
        ~doc:
          "Also write the comparable report (wall-clock and other schedule-dependent counters \
           zeroed) to $(docv); meant for diffing in CI. An exhaustive run writes it \
           byte-identically across $(b,--jobs) values and interrupt/resume histories. A run cut \
           short by the execution cap at $(b,--jobs) > 1 explores a schedule-dependent subset, \
           so it may write a different report every time.")

let apply_overrides config ~max_failures ~max_steps ~exhaustive ~jobs ~snapshot =
  let config =
    match max_failures with
    | Some n -> { config with Jaaru.Config.max_failures = n }
    | None -> config
  in
  let config =
    match max_steps with Some n -> { config with Jaaru.Config.max_steps = n } | None -> config
  in
  let config = { config with Jaaru.Config.jobs; snapshot } in
  if exhaustive then { config with Jaaru.Config.stop_at_first_bug = false } else config

(* SIGINT/SIGTERM request the explorer's cooperative stop: workers finish
   their current replay, the partial report still prints, and the frontier
   is checkpointed. A second signal escalates — the user asked twice, so the
   wind-down (grace periods, straggler collection) is abandoned and the
   process exits immediately with the conventional interrupt status. The
   previous dispositions are restored afterwards so batch drivers (lint over
   many cases) regain default kill behavior. *)
let with_graceful_signals f =
  Jaaru.Explorer.clear_interrupt ();
  let handler =
    Sys.Signal_handle
      (fun _ ->
        if Jaaru.Explorer.interrupts_requested () > 0 then begin
          prerr_endline "second interrupt: exiting immediately";
          exit 130
        end;
        Jaaru.Explorer.request_interrupt ())
  in
  let old_int = Sys.signal Sys.sigint handler in
  let old_term = Sys.signal Sys.sigterm handler in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigterm old_term)
    f

let write_report path o =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "%a@." Jaaru.Explorer.pp_report o)

(* A replay met a different decision shape than the one recorded. After
   --resume the likely cause is a checkpoint written for other code: its
   fingerprint covers the configuration and workload name, not the program. *)
let divergence ?resumed msg =
  match resumed with
  | None -> `Msg msg
  | Some path ->
      `Msg
        (Printf.sprintf
           "%s\ncheckpoint %s does not fit this program: it was most likely written before the \
            workload's code changed (the fingerprint covers the configuration and workload name, \
            not the code); re-run without --resume"
           msg path)

let check_run id max_failures max_steps exhaustive jobs snapshot show_multi_rf show_trace
    analyze wall_budget step_deadline mem_budget checkpoint checkpoint_every resume report_out =
  match find_case id with
  | Error e -> Error e
  | Ok c -> (
      let config =
        apply_overrides c.config ~max_failures ~max_steps ~exhaustive ~jobs ~snapshot
      in
      let config = if analyze then { config with Jaaru.Config.analyze = true } else config in
      let config =
        {
          config with
          (* Only --trace prints the bug traces the ring records. *)
          Jaaru.Config.trace_depth = (if show_trace then config.Jaaru.Config.trace_depth else 0);
          wall_budget;
          step_deadline;
          mem_budget = Option.map (fun mb -> mb * 1024 * 1024) mem_budget;
          checkpoint_every;
        }
      in
      let checkpoint = match (checkpoint, resume) with Some p, _ -> Some p | None, r -> r in
      Format.printf "checking %s (%s): %s@." c.id c.benchmark c.description;
      Format.printf "config: %a@.@." Jaaru.Config.pp config;
      match
        with_graceful_signals (fun () ->
            let resume = Option.map Jaaru.Checkpoint.load resume in
            Option.iter Jaaru.Checkpoint.check_writable checkpoint;
            Jaaru.Explorer.run ~config ?resume ?checkpoint c.scenario)
      with
      | exception Jaaru.Checkpoint.Rejected msg -> Error (`Msg msg)
      | exception Jaaru.Choice.Divergence msg -> Error (divergence ?resumed:resume msg)
      | o ->
          Format.printf "%a@.@." Jaaru.Explorer.pp_outcome o;
          Option.iter (fun path -> write_report path o) report_out;
          List.iter
            (fun b ->
              if show_trace then Format.printf "%a@.@." Jaaru.Bug.pp b
              else Format.printf "bug: %s@." (Jaaru.Bug.symptom b))
            o.Jaaru.Explorer.bugs;
          if show_multi_rf then begin
            Format.printf "@.loads with multiple read-from candidates:@.";
            List.iter
              (fun (r : Jaaru.Ctx.multi_rf) ->
                Format.printf "  %s @@ 0x%x <- {%s}@." r.load_label r.load_addr
                  (String.concat ", "
                     (List.map (fun (l, v) -> Printf.sprintf "%s=%d" l v) r.candidates)))
              o.Jaaru.Explorer.multi_rf
          end;
          if o.Jaaru.Explorer.stats.Jaaru.Stats.interrupted then begin
            (match checkpoint with
            | Some path ->
                Format.printf "@.run interrupted; continue with: jaaru check %s --resume %s@."
                  c.id path
            | None ->
                Format.printf
                  "@.run interrupted; progress was discarded (re-run with --checkpoint FILE to \
                   make runs resumable)@.");
            Error (`Msg "run interrupted")
          end
          else verdict c o.Jaaru.Explorer.bugs)

let check_cmd =
  let doc = "Model check one bundled case" in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      term_result
        (const check_run $ id_arg $ max_failures_arg $ max_steps_arg $ exhaustive_arg $ jobs_arg
       $ snapshot_arg $ multi_rf_arg $ trace_arg $ analyze_arg $ wall_budget_arg
       $ step_deadline_arg $ mem_budget_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg
       $ report_out_arg))

(* --- lint ------------------------------------------------------------------ *)

(* Lint runs the pre-failure program once, failure-free, with the analysis
   passes on ([max_executions = 1] keeps exploration to exactly the root
   all-defaults execution, so the report is deterministic for any --jobs and
   never waits on the full state space). Missing-flush bugs are root-caused
   at the guilty store label without ever replaying the crash that would
   expose the symptom. *)
let lint_config config ~jobs =
  {
    config with
    Jaaru.Config.analyze = true;
    stop_at_first_bug = false;
    max_executions = 1;
    jobs;
  }

let lint_one ~fail_on ~jobs (c : Jaaru.Case.t) =
  let config = lint_config c.config ~jobs in
  let o = Jaaru.Explorer.run ~config c.scenario in
  let findings = o.Jaaru.Explorer.findings in
  Format.printf "@[<v>linting %-26s %d finding(s)" c.id (List.length findings);
  List.iter (fun f -> Format.printf "@,  %a" Analysis.Report.pp_finding f) findings;
  Format.printf "@]@.";
  let flagged =
    match fail_on with
    | None -> []
    | Some threshold ->
        List.filter
          (fun (f : Analysis.Report.finding) ->
            Analysis.Report.severity_at_least ~threshold f.Analysis.Report.severity)
          findings
  in
  if c.lint_roots <> [] then begin
    (* A seeded missing-flush case: lint must name one of the guilty store
       labels in a high-severity missing-flush finding. *)
    let root_caused =
      List.exists
        (fun (f : Analysis.Report.finding) ->
          f.Analysis.Report.severity = Analysis.Report.High
          && f.Analysis.Report.pass = "missing-flush"
          && List.exists (fun l -> List.mem l c.lint_roots) f.Analysis.Report.labels)
        findings
    in
    if root_caused then Ok ()
    else
      Error
        (Printf.sprintf "%s: failed to root-cause seeded bug (expected a store label among: %s)"
           c.id
           (String.concat ", " c.lint_roots))
  end
  else if c.expected_symptom = None && flagged <> [] then
    Error
      (Printf.sprintf "%s: clean case has %d finding(s) at or above the fail threshold" c.id
         (List.length flagged))
  else Ok ()

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"CASE" ~doc:"Case ids to lint (default: all)")

let fail_on_arg =
  let sev =
    Arg.enum
      [
        ("low", Some Analysis.Report.Low);
        ("medium", Some Analysis.Report.Medium);
        ("high", Some Analysis.Report.High);
        ("none", None);
      ]
  in
  Arg.(
    value
    & opt sev (Some Analysis.Report.High)
    & info [ "fail-on" ] ~docv:"SEVERITY"
        ~doc:
          "Fail clean cases that have findings at or above $(docv) (low, medium, high, or none to \
           never fail on severity)")

let lint_run ids fail_on jobs =
  let cases =
    match ids with
    | [] -> Ok (all_cases ())
    | ids -> (
        match List.find_opt (fun id -> Result.is_error (find_case id)) ids with
        | Some bad -> Error (`Msg (Printf.sprintf "unknown case %S; try `jaaru list'" bad))
        | None -> Ok (List.map (fun id -> Result.get_ok (find_case id)) ids))
  in
  match cases with
  | Error e -> Error e
  | Ok cases ->
      let errors =
        List.filter_map
          (fun c -> match lint_one ~fail_on ~jobs c with Ok () -> None | Error m -> Some m)
          cases
      in
      if errors = [] then begin
        Format.printf "lint: %d case(s) ok@." (List.length cases);
        Ok ()
      end
      else begin
        List.iter (fun m -> Format.printf "lint error: %s@." m) errors;
        Error (`Msg (Printf.sprintf "%d lint failure(s)" (List.length errors)))
      end

let lint_cmd =
  let doc = "Statically root-cause persistency bugs with the analysis passes (no crash replay)" in
  Cmd.v (Cmd.info "lint" ~doc) Term.(term_result (const lint_run $ ids_arg $ fail_on_arg $ jobs_arg))

(* --- yat ------------------------------------------------------------------ *)

let yat_run id =
  match find_case id with
  | Error e -> Error e
  | Ok c ->
      let t = Yat.State_count.analyze ~config:c.config (fun ctx -> c.scenario.pre ctx) in
      Format.printf "%s: %a@." c.id Yat.State_count.pp t;
      Ok ()

let yat_cmd =
  let doc = "Count the post-failure states an eager (Yat-style) checker would explore" in
  Cmd.v (Cmd.info "yat" ~doc) Term.(term_result (const yat_run $ id_arg))

(* --- perf ------------------------------------------------------------------ *)

let bench_arg =
  Arg.(
    value
    & opt string "CCEH"
    & info [ "benchmark" ] ~docv:"NAME"
        ~doc:"One of CCEH, FAST_FAIR, P-ART, P-BwTree, P-CLHT, P-Masstree")

let n_arg =
  Arg.(value & opt non_negative_int 8 & info [ "n" ] ~docv:"N" ~doc:"Workload size (keys inserted)")

let perf_run benchmark n jobs snapshot =
  match Recipe.Workloads.fixed_scenario benchmark n with
  | exception Invalid_argument m -> Error (`Msg m)
  | scn ->
      let config =
        {
          Jaaru.Config.default with
          Jaaru.Config.max_steps = 200_000;
          jobs;
          snapshot;
        }
      in
      let t0 = Unix.gettimeofday () in
      let o = Jaaru.Explorer.run ~config scn in
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "%s n=%d: %a@." benchmark n Jaaru.Explorer.pp_outcome o;
      Format.printf "wall time: %.3fs@." dt;
      let yat = Yat.State_count.analyze ~config (fun ctx -> scn.pre ctx) in
      Format.printf "eager baseline would explore %a states@." Yat.State_count.pp_count
        yat.Yat.State_count.log10_total;
      if Jaaru.Explorer.found_bug o then Error (`Msg "fixed benchmark reported a bug") else Ok ()

let perf_cmd =
  let doc = "Exhaustively explore a fixed RECIPE benchmark and report statistics" in
  Cmd.v
    (Cmd.info "perf" ~doc)
    Term.(term_result (const perf_run $ bench_arg $ n_arg $ jobs_arg $ snapshot_arg))

(* --- fuzz ------------------------------------------------------------------ *)

let seeds_arg =
  Arg.(
    value & opt non_negative_int 16
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of schedule seeds to fuzz")

let fuzz_run id nseeds jobs =
  match find_case id with
  | Error e -> Error e
  | Ok c ->
      let seeds = List.init nseeds succ in
      Format.printf "fuzzing %s over %d schedules...@." c.id nseeds;
      let config = { c.config with Jaaru.Config.jobs } in
      let r = Jaaru.Fuzz.run ~config ~seeds c.scenario in
      Format.printf "%a@." Jaaru.Fuzz.pp r;
      verdict c r.Jaaru.Fuzz.bugs

let fuzz_cmd =
  let doc = "Fuzz a bundled case across seeded thread schedules (concurrency bugs)" in
  Cmd.v (Cmd.info "fuzz" ~doc) Term.(term_result (const fuzz_run $ id_arg $ seeds_arg $ jobs_arg))

(* --- pbt ------------------------------------------------------------------ *)

(* Stateful property-based testing: generated command sequences, each
   explored across every crash point, checked against an in-memory fake.
   Stdout is deterministic for a fixed seed — reports never mention wall
   clock, and each exploration's outcome is jobs/layer-invariant by the
   explorer's contract — so CI can diff two runs byte-for-byte. Rates go to
   stderr. *)

let structure_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "structure" ] ~docv:"ID"
        ~doc:
          "Test one structure (see `jaaru pbt --list'; seeded-bug variants like \
           $(b,pmdk-hashmap-atomic!missing-entry-flush) are accepted here and only here). \
           Default: every clean structure.")

let pbt_list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List the testable structures and exit")

let count_arg =
  Arg.(
    value & opt non_negative_int 25
    & info [ "count" ] ~docv:"N" ~doc:"Command sequences to generate per structure")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Generation seed")

let max_cmds_arg =
  Arg.(
    value
    & opt (positive int ~zero:0) 6
    & info [ "max-cmds" ] ~docv:"N" ~doc:"Maximum commands per generated sequence")

let time_budget_arg =
  Arg.(
    value
    & opt (some (positive float ~zero:0.)) None
    & info [ "time-budget" ] ~docv:"SEC"
        ~doc:
          "Nightly mode: keep output deterministic only in content shape, not coverage — stop \
           cooperatively after $(docv) seconds of wall clock across all structures, reporting \
           each interrupted structure with the sequences it completed.")

let json_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json-out" ] ~docv:"FILE"
        ~doc:
          "Also write the coverage/witness summary as a schema-versioned JSON artifact \
           ($(b,jaaru-pbt-coverage/1)) to $(docv) — what the nightly publishes; deterministic \
           (no wall-clock fields).")

let pbt_run structure list count seed max_cmds time_budget jobs snapshot json_out =
  if list then begin
    Format.printf "%-42s %-8s %s@." "ID" "FAMILY" "ORACLE";
    List.iter
      (fun a ->
        let module S = (val a : Pbt.Structures.STRUCTURE) in
        Format.printf "%-42s %-8s %s@." S.id S.family
          (match S.discipline with
          | Pbt.Oracle.Any_subset -> "any persist-consistent subset"
          | Pbt.Oracle.Prefix_only -> "prefix of issued commands"))
      (Pbt.Structures.all () @ Pbt.Structures.seeded ());
    Ok ()
  end
  else
    let adapters =
      match structure with
      | None -> Ok (Pbt.Structures.all ())
      | Some id -> (
          match Pbt.Structures.find id with
          | Some a -> Ok [ a ]
          | None ->
              Error (`Msg (Printf.sprintf "unknown structure %S; try `jaaru pbt --list'" id)))
    in
    match adapters with
    | Error e -> Error e
    | Ok adapters ->
        let deadline = Option.map (fun b -> Unix.gettimeofday () +. b) time_budget in
        let config = { Pbt.Runner.config with Jaaru.Config.jobs; snapshot } in
        let reports =
          List.map
            (fun a -> Pbt.Driver.run_structure ~config ?deadline ~seed ~count ~max_cmds a)
            adapters
        in
        List.iter
          (fun r ->
            Format.printf "%a@." Pbt.Driver.pp_report r;
            if r.Pbt.Driver.wall > 0. then
              Format.eprintf "%s: %.1f sequences/s, %.0f executions/s (%.2fs)@."
                r.Pbt.Driver.structure
                (float_of_int r.Pbt.Driver.sequences /. r.Pbt.Driver.wall)
                (float_of_int r.Pbt.Driver.executions /. r.Pbt.Driver.wall)
                r.Pbt.Driver.wall)
          reports;
        Option.iter
          (fun path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> output_string oc (Pbt.Driver.json_report reports)))
          json_out;
        let failed = List.filter Pbt.Driver.found_bug reports in
        let interrupted = List.exists (fun r -> r.Pbt.Driver.interrupted) reports in
        if failed <> [] then
          Error
            (`Msg
              (Printf.sprintf "%d structure(s) failed: %s" (List.length failed)
                 (String.concat ", " (List.map (fun r -> r.Pbt.Driver.structure) failed))))
        else begin
          if interrupted then
            Format.printf "time budget exhausted; coverage above is partial@.";
          Ok ()
        end

let pbt_cmd =
  let doc = "Property-based test the bundled structures against in-memory fakes across crashes" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates random command sequences per structure, runs each under the model checker \
         across every injected crash point, and requires the recovered observable state to match \
         an in-memory fake applied to some persist-consistent subset of the issued commands. \
         Failing sequences are shrunk to a minimal witness with a replayable repro line.";
    ]
  in
  Cmd.v
    (Cmd.info "pbt" ~doc ~man)
    Term.(
      term_result
        (const pbt_run $ structure_arg $ pbt_list_arg $ count_arg $ seed_arg $ max_cmds_arg
       $ time_budget_arg $ jobs_arg $ snapshot_arg $ json_out_arg))

(* --- fleet ----------------------------------------------------------------- *)

(* Fleet mode fans the exploration out over supervised worker OS processes.
   Both sides — `jaaru fleet` (the coordinator) and the internal
   `jaaru fleet-worker` it spawns — build the exploration configuration
   through this one function, so the checkpoint fingerprints cannot drift:
   a worker that would compute a different tree rejects its shards instead
   of silently exploring the wrong one. Fleet always explores exhaustively
   (stop-at-first-bug stops mid-subtree, which has no deterministic merge). *)
let fleet_exploration_config (c : Jaaru.Case.t) ~max_failures ~max_steps ~jobs ~snapshot =
  {
    (apply_overrides c.config ~max_failures ~max_steps ~exhaustive:true ~jobs ~snapshot) with
    (* Nothing in fleet mode prints a bug trace, so none is recorded. *)
    Jaaru.Config.trace_depth = 0;
  }

let fleet_workers_arg =
  Arg.(
    value
    & opt (positive int ~zero:0) 2
    & info [ "fleet-workers" ] ~docv:"N"
        ~doc:
          "Supervised worker processes. The merged report is byte-identical for every value \
           (including 1) and to a plain single-process `jaaru check'.")

let heartbeat_timeout_arg =
  Arg.(
    value
    & opt (positive float ~zero:0.) 2.0
    & info [ "heartbeat-timeout" ] ~docv:"SEC"
        ~doc:
          "Seconds without a worker heartbeat before it is declared hung and killed. A worker \
           beats between replays, so this also bounds the wall time of one replay: a recovery \
           that spins without a memory operation is killed, and its shard retried and then \
           quarantined.")

let quarantine_arg =
  Arg.(
    value
    & opt (positive int ~zero:0) 3
    & info [ "quarantine-after" ] ~docv:"N"
        ~doc:
          "Failures after which a shard is quarantined and reported instead of retried \
           forever (a poison shard that keeps killing workers must not wedge the fleet)")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ] ~doc:"Print supervision events (spawns, retries, quarantines)")

let heartbeat_period_arg =
  Arg.(
    value
    & opt (positive float ~zero:0.) 0.05
    & info [ "heartbeat-period" ] ~docv:"SEC" ~doc:"Worker heartbeat interval (internal)")

let fleet_run_case (c : Jaaru.Case.t) ~config ~workers ~heartbeat_timeout ~heartbeat_period
    ~quarantine_after ~max_failures ~max_steps ~jobs ~snapshot ~verbose =
  let worker_argv =
    Array.of_list
      ([ Sys.executable_name; "fleet-worker"; c.id ]
      @ (match max_failures with Some n -> [ "--max-failures"; string_of_int n ] | None -> [])
      @ (match max_steps with Some n -> [ "--max-steps"; string_of_int n ] | None -> [])
      @ [
          "--jobs";
          string_of_int jobs;
          "--snapshot";
          (if snapshot then "on" else "off");
          "--heartbeat-period";
          Printf.sprintf "%g" heartbeat_period;
        ])
  in
  let fleet =
    {
      (Fleet.Coordinator.default ~scratch:"") with
      Fleet.Coordinator.workers;
      heartbeat_timeout;
      quarantine_after;
      worker_argv = Some worker_argv;
      log = (if verbose then fun s -> Format.eprintf "[fleet] %s@." s else ignore);
    }
  in
  with_graceful_signals (fun () -> Fleet.Coordinator.run ~fleet ~config ~scenario:c.scenario)

let fleet_run id workers heartbeat_timeout heartbeat_period quarantine_after max_failures
    max_steps jobs snapshot checkpoint report_out verbose =
  match find_case id with
  | Error e -> Error e
  | Ok c -> (
      Format.printf "fleet-checking %s (%s): %s@." c.id c.benchmark c.description;
      let config = fleet_exploration_config c ~max_failures ~max_steps ~jobs ~snapshot in
      match
        Option.iter Jaaru.Checkpoint.check_writable checkpoint;
        fleet_run_case c ~config ~workers ~heartbeat_timeout ~heartbeat_period
          ~quarantine_after ~max_failures ~max_steps ~jobs ~snapshot ~verbose
      with
      | exception Jaaru.Checkpoint.Rejected msg -> Error (`Msg msg)
      | exception Jaaru.Choice.Divergence msg -> Error (divergence msg)
      | r ->
          let o = r.Fleet.Coordinator.outcome in
          Format.printf "%a@.@." Jaaru.Explorer.pp_outcome o;
          Format.printf "%a@." Fleet.Coordinator.pp_fleet r.Fleet.Coordinator.fleet;
          Option.iter (fun path -> write_report path o) report_out;
          List.iter (fun b -> Format.printf "bug: %s@." (Jaaru.Bug.symptom b)) o.Jaaru.Explorer.bugs;
          if r.Fleet.Coordinator.remaining <> [] || r.Fleet.Coordinator.interrupted then begin
            (* Checkpoint every live shard so the run is continuable —
               with plain `jaaru check --resume`: the aggregate uses the
               same fingerprint and format as a single-process run. *)
            let stopped =
              if r.Fleet.Coordinator.interrupted then "run interrupted"
              else "unexplored shards remain (quarantined, or no worker could start)"
            in
            match checkpoint with
            | Some path -> (
                let cp = Jaaru.Explorer.to_checkpoint ~config c.scenario o in
                match Jaaru.Checkpoint.save cp path with
                | exception Jaaru.Checkpoint.Rejected msg -> Error (`Msg msg)
                | () ->
                    Format.printf
                      "@.fleet stopped early; continue with: jaaru check %s --resume %s@."
                      c.id path;
                    Error (`Msg stopped))
            | None ->
                Format.printf
                  "@.fleet stopped early; progress was discarded (re-run with --checkpoint \
                   FILE to make fleet runs resumable)@.";
                Error (`Msg stopped)
          end
          else verdict c o.Jaaru.Explorer.bugs)

let fleet_cmd =
  let doc = "Model check one case across supervised worker processes" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs every replay in supervised worker processes, never in this one: the first \
         worker's first replay splits the choice tree into shard checkpoints, which are fanned \
         out to the workers (heartbeats, crash detection, retry with capped backoff, \
         poison-shard quarantine, work stealing), and the shard reports are merged \
         deterministically: an exhaustive fleet run reports byte-identically to \
         single-process $(b,jaaru check), for every $(b,--fleet-workers) value, however many \
         workers died, hung or were killed on the way. If no worker can be started, the run \
         stops with the tree unexplored; with $(b,--checkpoint) it is resumable by \
         $(b,jaaru check --resume).";
    ]
  in
  Cmd.v
    (Cmd.info "fleet" ~doc ~man)
    Term.(
      term_result
        (const fleet_run $ id_arg $ fleet_workers_arg $ heartbeat_timeout_arg
       $ heartbeat_period_arg $ quarantine_arg $ max_failures_arg $ max_steps_arg $ jobs_arg
       $ snapshot_arg $ checkpoint_arg $ report_out_arg $ verbose_arg))

(* Accepted and ignored: the macro benchmark suite still passes it to the
   workers it spawns. A later benchmark change removes it together with the
   suite's memo.* metrics and its memo-off variant. *)
let ignored_memo_arg =
  Arg.(
    value
    & opt (enum [ ("on", ()); ("off", ()) ]) ()
    & info [ "memo" ] ~docv:"on|off" ~doc:"Ignored; crash-state memoization was removed.")

(* The internal worker entry point `jaaru fleet` spawns. Its stdin/stdout are
   the protocol pipes — nothing here may print to stdout. *)
let fleet_worker_run id max_failures max_steps jobs snapshot () heartbeat_period =
  match find_case id with
  | Error e -> Error e
  | Ok c ->
      let config = fleet_exploration_config c ~max_failures ~max_steps ~jobs ~snapshot in
      (* Every replay starts by ticking the worker: its heartbeat is replay
         progress. *)
      let scenario ~tick =
        let s = c.scenario in
        {
          s with
          Jaaru.Explorer.pre = (fun ctx -> tick (); s.pre ctx);
          post = (fun ctx -> tick (); s.post ctx);
        }
      in
      let run ~tick ~shard:_ ~attempt:_ ~payload =
        match Jaaru.Checkpoint.of_string payload with
        | exception Jaaru.Checkpoint.Rejected msg -> Error msg
        | cp -> (
            match
              Jaaru.Checkpoint.validate cp ~workload:c.scenario.Jaaru.Explorer.name ~config
            with
            | exception Jaaru.Checkpoint.Rejected msg -> Error msg
            | () ->
                (* A Preempt for the previous shard that raced its Result
                   must not poison this one; one sent with this shard
                   arrives at its first tick. *)
                Jaaru.Explorer.clear_interrupt ();
                let scenario = scenario ~tick in
                let o = Jaaru.Explorer.run ~config ~resume:cp scenario in
                Ok
                  (Jaaru.Checkpoint.to_string (Jaaru.Explorer.to_checkpoint ~config scenario o)))
      in
      Fleet.Worker.serve ~heartbeat_period ~on_preempt:Jaaru.Explorer.request_interrupt ~run ();
      Ok ()

let fleet_worker_cmd =
  let doc = "Internal: the worker process `jaaru fleet' spawns (speaks frames on stdin/stdout)" in
  Cmd.v
    (Cmd.info "fleet-worker" ~doc)
    Term.(
      term_result
        (const fleet_worker_run $ id_arg $ max_failures_arg $ max_steps_arg $ jobs_arg
       $ snapshot_arg $ ignored_memo_arg $ heartbeat_period_arg))

(* --- main ------------------------------------------------------------------ *)

let () =
  let doc = "Jaaru: a model checker for persistent-memory programs" in
  let info = Cmd.info "jaaru" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            check_cmd;
            fleet_cmd;
            fleet_worker_cmd;
            lint_cmd;
            yat_cmd;
            perf_cmd;
            fuzz_cmd;
            pbt_cmd;
          ]))
