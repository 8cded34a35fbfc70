(* The harness smoke dune runtest runs: on seconds-long stand-in workloads
   it checks that BENCHMARK.json is well formed and names only metrics the
   suite produces, that spans.jsonl is well formed, and that a golden file
   with one altered symptom makes a run fail. *)

let legal ~max ~extra s =
  let ok = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | c -> String.contains extra c in
  String.length s >= 1 && String.length s <= max && String.for_all ok s

let legal_name s =
  legal ~max:64 ~extra:"_.-" s
  && match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

let legal_unit = legal ~max:16 ~extra:"_/%.-"
let keys = function Json.Obj kvs -> List.sort compare (List.map fst kvs) | _ -> []
let has_keys j want = keys j = List.sort compare want

(* The benchmark contract's limits on BENCHMARK.json. Returns the problems
   found and the declared end-to-end and per-layer metrics with their units. *)
let validate_benchmark path =
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  let b = Json.of_file path in
  check (String.length (Json.read_file path) <= 65536) "BENCHMARK.json is larger than 64 KiB";
  check
    (has_keys b [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ])
    "BENCHMARK.json has keys other than those the contract names";
  let strings k = List.map Json.to_str (Json.to_list (Json.get k b)) in
  let relative p = p <> "" && p.[0] <> '/' && not (List.mem ".." (String.split_on_char '/' p)) in
  let command = strings "command" and paths = strings "paths" in
  check (command <> [] && List.length command <= 32) "command: 1 to 32 strings";
  List.iter
    (fun a -> check (String.length a <= 200 && relative a) ("command: bad argument " ^ a))
    command;
  check (paths <> [] && List.length paths <= 16) "paths: 1 to 16 directories";
  List.iter
    (fun p -> check (legal ~max:200 ~extra:"_.-/" p && relative p) ("paths: bad path " ^ p))
    paths;
  let rs = Json.num "run_seconds" b in
  check (Float.is_integer rs && rs >= 1. && rs <= 60.) "run_seconds: a whole number from 1 to 60";
  let entries k lo hi want =
    let l = Json.to_list (Json.get k b) in
    check (List.length l >= lo && List.length l <= hi) (Printf.sprintf "%s: %d to %d" k lo hi);
    List.iter (fun e -> check (has_keys e want) (k ^ ": entry with the wrong keys")) l;
    l
  in
  let workloads = entries "workloads" 2 8 [ "name"; "why" ]
  and e2e = entries "end_to_end" 1 16 [ "name"; "unit"; "better"; "bound" ]
  and layers = entries "per_layer" 1 128 [ "name"; "unit"; "better" ] in
  let str k e = Json.to_str (Json.get k e) in
  let name = str "name" and unit = str "unit" in
  List.iter
    (fun w ->
      let why = str "why" w in
      check
        (String.length why <= 200 && not (String.contains why '\n'))
        (name w ^ ": why must be one line of at most 200 characters");
      check
        (List.exists (fun (w' : Workloads.t) -> w'.name = name w) Workloads.all)
        (name w ^ ": not a suite workload"))
    workloads;
  List.iter
    (fun m ->
      check (legal_unit (unit m)) (name m ^ ": illegal unit");
      check (List.mem (str "better" m) [ "lower"; "higher" ]) (name m ^ ": bad better"))
    (e2e @ layers);
  List.iter
    (fun m ->
      let bound = Json.num "bound" m in
      check (bound >= 0. && bound <= 0.25) (name m ^ ": bound must be within 0..0.25"))
    e2e;
  check
    (List.exists (fun m -> name m = "setup_s" && unit m = "s" && str "better" m = "lower") e2e)
    "end_to_end must declare setup_s in s, lower is better";
  let names = List.map name (workloads @ e2e @ layers) in
  List.iter (fun n -> check (legal_name n) (n ^ ": illegal name")) names;
  check (List.length (List.sort_uniq compare names) = List.length names) "a name is used twice";
  let declared l = List.map (fun m -> (name m, unit m)) l in
  (List.rev !problems, declared e2e, declared layers)

let validate_spans path =
  let spans = List.map Json.of_string (Measure.lines (Json.read_file path)) in
  let ids = List.map (Json.num "id") spans in
  let bad s =
    (not (has_keys s [ "id"; "name"; "start"; "end"; "parent"; "workload"; "item"; "domain" ]))
    || Json.num "end" s < Json.num "start" s
    || (Json.num "parent" s <> -1. && not (List.mem (Json.num "parent" s) ids))
  in
  if spans = [] then [ "spans.jsonl is empty" ]
  else List.map (fun s -> "malformed span: " ^ Json.to_string s) (List.filter bad spans)

(* Declared metrics the suite did not produce, or produced in another unit. *)
let missing (w : Workloads.t) declared got =
  List.filter_map
    (fun (n, u) ->
      match List.assoc_opt n got with
      | None -> Some (Printf.sprintf "%s: the suite does not produce %s" w.name n)
      | Some v when Float.is_nan v -> Some (Printf.sprintf "%s: %s is not a number" w.name n)
      | Some _ when Measure.unit_of n <> u ->
          Some (Printf.sprintf "%s is in %s, not %s" n (Measure.unit_of n) u)
      | Some _ -> None)
    declared

let run (cfg : Measure.config) benchmark =
  Proc.set_tmpdir cfg.out;
  let spans = Filename.concat cfg.out "spans.jsonl" in
  (try Sys.remove spans with Sys_error _ -> ());
  let log = Proc.open_log (Filename.concat cfg.out "smoke.stderr") in
  let problems, e2e_declared, layers_declared = validate_benchmark benchmark in
  let produced =
    List.concat_map
      (fun (w : Workloads.t) ->
        let m = Measure.measure cfg ~seconds:0. ~stderr:log w in
        let l = Measure.layers cfg ~stderr:log w in
        List.map (fun f -> w.name ^ ": " ^ f) (m.failures @ l.l_failures)
        @ missing w e2e_declared m.metrics
        @ missing w layers_declared l.per_layer)
      Workloads.smoke
  in
  (* Negative control: one altered golden symptom must fail the run. *)
  let altered = Filename.concat cfg.out "golden-altered" and case = "pmdk-ctree-fixed" in
  Proc.mkdir_p altered;
  let golden ext = Filename.concat cfg.golden (case ^ ext) in
  Proc.write_file (Filename.concat altered (case ^ ".report")) (Json.read_file (golden ".report"));
  Proc.write_file (Filename.concat altered (case ^ ".symptoms")) "Assertion failure at smoke\n";
  let r =
    Proc.run ~stderr:log
      [|
        Sys.executable_name; "bench"; "--workload"; "smoke-check"; "--seconds"; "0"; "--trace"; "0";
        "--cli"; cfg.cli; "--out"; Filename.concat cfg.out "negative"; "--golden"; altered;
      |]
  in
  Unix.close log;
  let rejected =
    r.code <> 0
    &&
    match List.rev (Measure.lines r.stdout) with
    | last :: _ -> (
        try not (Json.to_bool (Json.get "correct" (Json.of_string last)))
        with Json.Error _ -> false)
    | [] -> false
  in
  let problems =
    problems @ produced @ validate_spans spans
    @ if rejected then [] else [ "negative control: an altered golden symptom passed" ]
  in
  List.iter (Printf.printf "smoke: %s\n") problems;
  if problems = [] then begin
    print_endline "smoke: ok";
    0
  end
  else 1
