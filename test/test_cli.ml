(* Command-line validation: out-of-range numeric flags are rejected at parse
   time — exit 124 with a message naming the flag — instead of crashing deep
   in the run or being silently accepted. Runs the built CLI, whose path is
   the first argument. *)

let cli = Sys.argv.(1)

(* Runs the CLI with [args], returning its exit code and stderr. *)
let run args =
  let err = Filename.temp_file "jaaru_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      let pid = Unix.create_process cli (Array.of_list (cli :: args)) null null fd in
      Unix.close null;
      Unix.close fd;
      let code =
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
      in
      (code, In_channel.with_open_bin err In_channel.input_all))

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
            ("--poll", [ "serve"; "."; "--poll=0" ]);
            ("--jobs", [ "check"; "pmdk-1"; "--jobs=-3" ]);
            ("--max-steps", [ "check"; "pmdk-1"; "--max-steps=-5" ]);
            ("--time-budget", [ "pbt"; "--time-budget=-1" ]);
            ("--seeds", [ "fuzz"; "pmdk-1"; "--seeds=-1" ]);
            ("-n", [ "perf"; "--benchmark"; "P-CLHT"; "-n-3" ]);
            ("--memo", [ "check"; "pmdk-1"; "--memo"; "off" ]);
          ] );
      ( "accepted",
        List.map accepted
          [
            [ "check"; "P-CLHT-fixed"; "--max-failures"; "0" ];
            [ "pbt"; "--structure"; "pmdk-btree"; "--count"; "0" ];
          ] );
    ]
