(* The benchmark's workloads. The programs under test in lib/pmdk,
   lib/recipe and lib/pbt/structures.ml are their inputs: a change to those
   programs changes the benchmark. *)

type kind =
  | Check of { cases : string list; jobs : int }
      (** [jaaru check CASE --max-failures 2 --jobs N], one invocation per case *)
  | Fleet of { case : string; workers : int }
      (** [jaaru fleet CASE --max-failures 2 --fleet-workers N] *)
  | Pbt of { structure : string option; count : int }
      (** [jaaru pbt --seed SEED --count N] over one structure, or every clean one *)

type t = { name : string; why : string; kind : kind }

let max_failures = 2

(* The 13 clean sequential cases: the 7 PMDK fixed cases and the 6 RECIPE
   fixed cases. *)
let sequential_cases =
  [
    "pmdk-btree-fixed";
    "pmdk-ctree-fixed";
    "pmdk-rbtree-fixed";
    "pmdk-hashmap-atomic-fixed";
    "pmdk-hashmap-tx-fixed";
    "pmdk-clog-fixed";
    "pmdk-skiplist-fixed";
    "CCEH-fixed";
    "FAST_FAIR-fixed";
    "P-ART-fixed";
    "P-BwTree-fixed";
    "P-CLHT-fixed";
    "P-Masstree-fixed";
  ]

let concurrent_case = "P-CLHT-concurrent"

let all =
  [
    {
      name = "seq-verify";
      why =
        "the paper's use: 13 clean sequential cases at 2 failures; long pre-failure programs, so \
         replay and snapshot restore dominate and memo never hits";
      kind = Check { cases = sequential_cases; jobs = 1 };
    };
    {
      name = "conc-verify";
      why =
        "buffered two-thread P-CLHT at 2 failures: ~88k short replays, so per-replay scaffolding \
         and choice bookkeeping dominate; the only workload where memo hits";
      kind = Check { cases = [ concurrent_case ]; jobs = 1 };
    };
    {
      name = "conc-par2";
      why =
        "conc-verify on 2 cores through OCaml domains sharing one heap (check --jobs 2), one side \
         of the domains-or-shards choice";
      kind = Check { cases = [ concurrent_case ]; jobs = 2 };
    };
    {
      name = "conc-fleet2";
      why =
        "conc-verify on 2 cores through 2 fleet worker processes, the other side of that choice; \
         only here do split, checkpoint and transport costs show";
      kind = Fleet { case = concurrent_case; workers = 2 };
    };
    {
      name = "pbt-sweep";
      why =
        "pbt over the 13 clean structures, 100 sequences each from --seed: ~1300 small \
         explorations, so per-exploration setup, generation and oracle costs dominate";
      kind = Pbt { structure = None; count = 100 };
    };
  ]

(* Seconds-long stand-ins for the harness smoke under dune runtest; not part
   of BENCHMARK.json. *)
let smoke =
  [
    { name = "smoke-check"; why = ""; kind = Check { cases = [ "pmdk-ctree-fixed" ]; jobs = 1 } };
    { name = "smoke-pbt"; why = ""; kind = Pbt { structure = Some "pmdk-clog"; count = 5 } };
    { name = "smoke-fleet"; why = ""; kind = Fleet { case = "pmdk-ctree-fixed"; workers = 2 } };
  ]

let find name = List.find_opt (fun w -> w.name = name) (all @ smoke)

(* --- CLI invocations --------------------------------------------------------- *)

type invocation = {
  item : string;  (** case id, or "pbt" *)
  argv : string array;  (** the measured invocation *)
  setup_argv : string array;
      (** the set-up sample: the same command at --max-failures 0 (or
          [pbt --list]), which exits right after one execution; the time to
          the first stdout byte does not depend on the failure bound *)
  report : string option;  (** where the measured invocation writes its comparable report *)
}

let invocations ~cli ~out ~seed w =
  let report_path item = Filename.concat out (Printf.sprintf "reports/%s/%s.report" w.name item) in
  match w.kind with
  | Check { cases; jobs } ->
      List.map
        (fun case ->
          let base mf =
            [ cli; "check"; case; "--max-failures"; string_of_int mf; "--jobs"; string_of_int jobs ]
          in
          let report = report_path case in
          {
            item = case;
            argv = Array.of_list (base max_failures @ [ "--report-out"; report ]);
            setup_argv = Array.of_list (base 0);
            report = Some report;
          })
        cases
  | Fleet { case; workers } ->
      let base mf =
        [ cli; "fleet"; case; "--max-failures"; string_of_int mf ]
        @ [ "--fleet-workers"; string_of_int workers ]
      in
      let report = report_path case in
      [
        {
          item = case;
          argv = Array.of_list (base max_failures @ [ "--report-out"; report ]);
          setup_argv = Array.of_list (base 0);
          report = Some report;
        };
      ]
  | Pbt { structure; count } ->
      let only = match structure with Some s -> [ "--structure"; s ] | None -> [] in
      [
        {
          item = "pbt";
          argv =
            Array.of_list
              ([ cli; "pbt"; "--seed"; string_of_int seed; "--count"; string_of_int count ] @ only);
          setup_argv = [| cli; "pbt"; "--list" |];
          report = None;
        };
      ]

(* The same invocations with no exploration work left in them, for the CLI
   overhead: the CLI's wall time minus the in-library time for these
   inputs is what process start-up, argument parsing and printing cost. *)
let overhead_argv inv =
  if inv.item = "pbt" then
    Array.mapi (fun i a -> if i > 0 && inv.argv.(i - 1) = "--count" then "0" else a) inv.argv
  else inv.setup_argv
