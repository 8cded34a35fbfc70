(* Command-line validation: out-of-range numeric flags are rejected at parse
   time — exit 124 with a message naming the flag — instead of crashing deep
   in the run or being silently accepted, and so are checkpoint paths that
   cannot be read or written and resumed frontiers that do not fit the
   program. Runs the built CLI, whose path is the first argument. *)

let cli = Sys.argv.(1)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Runs the CLI with [args], returning its exit code, stdout and stderr. *)
let run_full args =
  let out = Filename.temp_file "jaaru_cli" ".out" and err = Filename.temp_file "jaaru_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      let pid = Unix.create_process cli (Array.of_list (cli :: args)) null out_fd err_fd in
      List.iter Unix.close [ null; out_fd; err_fd ];
      let code =
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
      in
      (code, read_file out, read_file err))

let run args =
  let code, _, err = run_full args in
  (code, err)

let run_stdout args =
  let code, out, _ = run_full args in
  (code, out)

let with_temp_files n f =
  let paths = List.init n (fun _ -> Filename.temp_file "jaaru_cli" ".tmp") in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () -> f paths)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let rejected (flag, args) =
  Alcotest.test_case (String.concat " " args) `Quick (fun () ->
      let code, err = run args in
      Alcotest.(check int) "exit status" 124 code;
      Alcotest.(check bool) (Printf.sprintf "message names %s: %S" flag err) true
        (contains err (Printf.sprintf "'%s'" flag)))

(* Rejected inputs that are not flags: exit 124 with a message containing
   [needle], instead of an uncaught exception (exit 125). *)
let refused name args ~needle =
  Alcotest.test_case name `Quick (fun () ->
      let code, err = run (args ()) in
      Alcotest.(check int) "exit status" 124 code;
      Alcotest.(check bool) (Printf.sprintf "message names %s: %S" needle err) true
        (contains err needle))

let missing_dir = Filename.concat (Filename.get_temp_dir_name ()) "jaaru-cli-no-such-dir"
let in_missing_dir = Filename.concat missing_dir "x.ckpt"

(* A checkpoint whose fingerprint matches [pmdk-ctree-fixed] but whose
   frontier pins a decision shape the program does not have: what a
   checkpoint written before a workload edit looks like. *)
let stale_checkpoint () =
  let c = Jaaru.Case.find (Pmdk.Workloads.fixed_cases ()) "pmdk-ctree-fixed" in
  let path = Filename.temp_file "jaaru_cli" ".ckpt" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  Jaaru.Checkpoint.save
    (Jaaru.Checkpoint.make
       ~fingerprint:
         (Jaaru.Checkpoint.fingerprint ~workload:c.Jaaru.Case.scenario.Jaaru.Explorer.name
            c.Jaaru.Case.config)
       ~frontier:[ "0;F3:0:3" ] ~bugs:[] ~multi_rf:[] ~perf:[] ~findings:[] ~stats:Jaaru.Stats.zero)
    path;
  [ "check"; "pmdk-ctree-fixed"; "--resume"; path ]

(* Bug traces are recorded only under --trace: the report is the same
   either way, and only --trace prints "recent events". *)
let test_trace_only_when_printed () =
  with_temp_files 2 (fun paths ->
      let with_trace, without = (List.nth paths 0, List.nth paths 1) in
      let base = [ "check"; "pmdk-1"; "--exhaustive" ] in
      let code, out = run_stdout (base @ [ "--trace"; "--report-out"; with_trace ]) in
      Alcotest.(check int) "--trace: exit status" 0 code;
      Alcotest.(check bool) "--trace prints recent events" true (contains out "recent events");
      let code, out = run_stdout (base @ [ "--report-out"; without ]) in
      Alcotest.(check int) "exit status" 0 code;
      Alcotest.(check bool) "no recent events without --trace" false
        (contains out "recent events");
      Alcotest.(check string) "same report" (read_file with_trace) (read_file without))

(* A checkpoint written with or without --trace resumes under the other
   setting to the uninterrupted report. The 1 ms budget cuts the first run
   (a run that finished first still leaves a checkpoint to resume). *)
let resume_across_trace ~first ~second () =
  with_temp_files 3 (fun paths ->
      let ckpt, expected, got = (List.nth paths 0, List.nth paths 1, List.nth paths 2) in
      let base = [ "check"; "pmdk-1"; "--exhaustive"; "--max-failures"; "2" ] in
      Alcotest.(check int) "uninterrupted run" 0
        (fst (run_stdout (base @ [ "--report-out"; expected ])));
      ignore (run_stdout (base @ first @ [ "--wall-budget"; "0.001"; "--checkpoint"; ckpt ]));
      Alcotest.(check bool) "checkpoint written" true (String.length (read_file ckpt) > 0);
      let code, _ = run_stdout (base @ second @ [ "--resume"; ckpt; "--report-out"; got ]) in
      Alcotest.(check int) "resumed run" 0 code;
      Alcotest.(check string) "resumed report" (read_file expected) (read_file got))

let accepted args =
  Alcotest.test_case (String.concat " " args) `Quick (fun () ->
      Alcotest.(check int) "exit status" 0 (fst (run args)))

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      ( "rejected",
        List.map rejected
          [
            ("--max-cmds", [ "pbt"; "--max-cmds"; "0" ]);
            ("--max-cmds", [ "pbt"; "--max-cmds=-2" ]);
            ("--count", [ "pbt"; "--count=-5" ]);
            ("--max-failures", [ "check"; "pmdk-1"; "--max-failures=-1" ]);
            ("--wall-budget", [ "check"; "pmdk-1"; "--wall-budget=-1" ]);
            ("--mem-budget", [ "check"; "pmdk-1"; "--mem-budget=-3" ]);
            ("--step-deadline", [ "check"; "pmdk-1"; "--step-deadline=0" ]);
            ("--checkpoint-every", [ "check"; "pmdk-1"; "--checkpoint-every=-1" ]);
            ("--heartbeat-timeout", [ "fleet"; "pmdk-1"; "--heartbeat-timeout=0" ]);
            ("--fleet-workers", [ "fleet"; "pmdk-1"; "--fleet-workers=-2" ]);
            ("--quarantine-after", [ "fleet"; "pmdk-1"; "--quarantine-after=0" ]);
            ("--heartbeat-period", [ "fleet"; "pmdk-1"; "--heartbeat-period=0" ]);
            ("--jobs", [ "check"; "pmdk-1"; "--jobs=-3" ]);
            ("--max-steps", [ "check"; "pmdk-1"; "--max-steps=-5" ]);
            ("--time-budget", [ "pbt"; "--time-budget=-1" ]);
            ("--seeds", [ "fuzz"; "pmdk-1"; "--seeds=-1" ]);
            ("-n", [ "perf"; "--benchmark"; "P-CLHT"; "-n-3" ]);
            ("--memo", [ "check"; "pmdk-1"; "--memo"; "off" ]);
          ] );
      ( "refused",
        [
          refused "unreadable --resume path"
            (fun () -> [ "check"; "pmdk-1"; "--resume"; Filename.get_temp_dir_name () ])
            ~needle:("cannot read checkpoint " ^ Filename.get_temp_dir_name ());
          refused "check --checkpoint in a missing directory"
            (fun () -> [ "check"; "pmdk-1"; "--checkpoint"; in_missing_dir ])
            ~needle:("directory " ^ missing_dir);
          refused "fleet --checkpoint in a missing directory"
            (fun () -> [ "fleet"; "pmdk-1"; "--checkpoint"; in_missing_dir ])
            ~needle:("directory " ^ missing_dir);
          refused "resumed frontier that does not fit the program" stale_checkpoint
            ~needle:"written before the workload's code changed";
          (* A step budget too small for the seeded bug reports only a
             loop, which is not the bug the case seeds. *)
          refused "check of a seeded case that finds another bug"
            (fun () -> [ "check"; "pmdk-1"; "--max-steps"; "5" ])
            ~needle:"seeded bug was not found";
          refused "fleet of a seeded case that finds another bug"
            (fun () -> [ "fleet"; "pmdk-1"; "--max-steps"; "5"; "--fleet-workers"; "1" ])
            ~needle:"seeded bug was not found";
          (* The coordinator injects no faults of its own any more. *)
          refused "fleet --fleet-chaos is an unknown option"
            (fun () -> [ "fleet"; "pmdk-1"; "--fleet-chaos"; "kill:0.3" ])
            ~needle:"unknown option '--fleet-chaos'";
        ] );
      ( "trace",
        [
          Alcotest.test_case "check pmdk-1 --exhaustive: same report, no events without --trace"
            `Quick test_trace_only_when_printed;
          Alcotest.test_case "checkpoint without --trace resumes with --trace" `Quick
            (resume_across_trace ~first:[] ~second:[ "--trace" ]);
          Alcotest.test_case "checkpoint with --trace resumes without --trace" `Quick
            (resume_across_trace ~first:[ "--trace" ] ~second:[]);
        ] );
      ( "accepted",
        List.map accepted
          [
            [ "check"; "P-CLHT-fixed"; "--max-failures"; "0" ];
            [ "pbt"; "--structure"; "pmdk-btree"; "--count"; "0" ];
          ] );
    ]
