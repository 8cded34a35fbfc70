(* One benchmark run of one workload: the untraced end-to-end measurement
   (set-up samples, then whole passes over the workload's CLI invocations,
   one process at a time) with its correctness gate, or the traced run that
   gives the per-layer numbers. *)

type config = { cli : string; out : string; golden : string; seed : int }

(* --- the correctness gate ----------------------------------------------------- *)

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let golden_lines path =
  match Json.read_file path with
  | s -> Some (List.sort_uniq compare (lines s))
  | exception Sys_error _ -> None

let symptoms stdout =
  lines stdout
  |> List.filter_map (fun l ->
         if String.starts_with ~prefix:"bug: " l then Some (String.sub l 5 (String.length l - 5))
         else None)
  |> List.sort_uniq compare

let pbt_structures = function
  | Some id -> [ id ]
  | None -> List.map Pbt.Structures.id (Pbt.Structures.all ())

(* Problems with one measured invocation (a non-empty list fails it), and
   whether its comparable report differs from the committed golden one.
   Report drift is only counted: an exploration change may legitimately
   alter the report's counts, but never a clean case's verdict. A workload
   that splits one exploration over two cores must still report exactly
   what one core reports, which is what the golden report holds. *)
let verify cfg (w : Workloads.t) (inv : Workloads.invocation) (r : Proc.result) =
  let exit = if r.code <> 0 then [ Printf.sprintf "exit status %d" r.code ] else [] in
  match w.kind with
  | Workloads.Pbt { structure; _ } ->
      let ok id =
        List.exists (String.starts_with ~prefix:("pbt " ^ id ^ ": ok ")) (lines r.stdout)
      in
      let not_ok = List.filter (fun id -> not (ok id)) (pbt_structures structure) in
      (exit @ List.map (fun id -> id ^ " did not report ok") not_ok, false)
  | Workloads.Check _ | Workloads.Fleet _ ->
      let golden ext = Filename.concat cfg.golden (inv.item ^ ext) in
      let verdict =
        match golden_lines (golden ".symptoms") with
        | None -> [ "no golden symptom set " ^ golden ".symptoms" ]
        | Some expected when expected <> symptoms r.stdout ->
            let set l = "{" ^ String.concat "; " l ^ "}" in
            [ Printf.sprintf "bug symptoms %s, golden %s" (set (symptoms r.stdout)) (set expected) ]
        | Some _ -> []
      in
      let drift =
        match Option.map Json.read_file inv.report, Json.read_file (golden ".report") with
        | Some got, expected -> got <> expected
        | None, _ -> true
        | exception Sys_error _ -> true
      in
      let split = match w.kind with Workloads.Check { jobs; _ } -> jobs > 1 | _ -> true in
      let single_core =
        if split && drift then [ "report differs from the single-core " ^ golden ".report" ] else []
      in
      (exit @ verdict @ single_core, drift)

(* --- end to end ------------------------------------------------------------------ *)

let setup_samples = 51

type e2e = {
  metrics : (string * float) list;  (** wall_s, setup_s, cpu_s, peak_rss_mb *)
  attempted : int;
  failed : int;  (** invocations that failed the gate *)
  failures : string list;
  drift : int;  (** invocations whose comparable report differs from the golden one *)
  pbt_stdout : string option;  (** deterministic for a seed, so comparable across runs *)
  passes : int;
  detail : Json.t;
}

let measure cfg ~seconds ~stderr (w : Workloads.t) =
  let invs = Workloads.invocations ~cli:cfg.cli ~out:cfg.out ~seed:cfg.seed w in
  Proc.mkdir_p (Filename.concat cfg.out ("reports/" ^ w.name));
  let attempted = ref 0 and failed = ref 0 and failures = ref [] and drift = ref 0 in
  let run argv problems =
    incr attempted;
    let r = Proc.run ~stderr argv in
    let p = problems r in
    if p <> [] then incr failed;
    List.iter (fun p -> failures := (Proc.command_line argv ^ ": " ^ p) :: !failures) p;
    r
  in
  let exit_ok (r : Proc.result) =
    if r.code <> 0 then [ Printf.sprintf "exit status %d" r.code ] else []
  in
  let is_pbt = match w.kind with Workloads.Pbt _ -> true | _ -> false in
  (* Set-up: spawn to the header that check and fleet print before
     exploring; for pbt, the whole of `pbt --list`. *)
  let setup =
    List.init setup_samples (fun i ->
        let inv = List.nth invs (i mod List.length invs) in
        let r = run inv.setup_argv exit_ok in
        if is_pbt then r.wall else r.first_byte)
  in
  let first_stdout = Hashtbl.create 16 in
  let t0 = Unix.gettimeofday () in
  let rec loop passes =
    let pass =
      List.map
        (fun (inv : Workloads.invocation) ->
          Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) inv.report;
          let r =
            run inv.argv (fun r ->
                let problems, drifted = verify cfg w inv r in
                if drifted then incr drift;
                (* pbt's stdout is a function of the seed alone. *)
                match Hashtbl.find_opt first_stdout inv.item with
                | Some s when is_pbt && s <> r.stdout ->
                    "stdout differs from the run's first pass" :: problems
                | Some _ -> problems
                | None ->
                    Hashtbl.add first_stdout inv.item r.stdout;
                    problems)
          in
          (inv, r))
        invs
    in
    let passes = pass :: passes and elapsed = Unix.gettimeofday () -. t0 in
    (* Another pass only if it should still end within the run's time. *)
    if elapsed +. (elapsed /. float_of_int (List.length passes)) <= seconds then loop passes
    else List.rev passes
  in
  let passes = loop [] in
  let per_inv f =
    List.mapi
      (fun i _ -> Proc.median (List.map (fun pass -> f (snd (List.nth pass i))) passes))
      invs
  in
  let sum = List.fold_left ( +. ) 0. in
  let all = List.concat passes in
  {
    metrics =
      [
        ("wall_s", sum (per_inv (fun (r : Proc.result) -> r.wall)));
        ("setup_s", Proc.median setup);
        ("cpu_s", sum (per_inv (fun (r : Proc.result) -> r.cpu)));
        ( "peak_rss_mb",
          List.fold_left (fun m (_, (r : Proc.result)) -> Float.max m r.rss_mb) 0. all );
      ];
    attempted = !attempted;
    failed = !failed;
    failures = List.rev !failures;
    drift = !drift;
    pbt_stdout = (if is_pbt then Hashtbl.find_opt first_stdout "pbt" else None);
    passes = List.length passes;
    detail =
      Json.Obj
        [
          ("setup_samples_s", Json.Arr (List.map (fun x -> Json.Num x) setup));
          ( "invocations",
            Json.Arr
              (List.map
                 (fun ((inv : Workloads.invocation), (r : Proc.result)) ->
                   Json.Obj
                     [
                       ("item", Json.Str inv.item);
                       ("wall_s", Json.Num r.wall);
                       ("first_byte_s", Json.Num r.first_byte);
                       ("cpu_s", Json.Num r.cpu);
                       ("rss_mb", Json.Num r.rss_mb);
                       ("exit", Json.int r.code);
                     ])
                 all) );
        ];
  }

(* --- the traced run ---------------------------------------------------------------- *)

type layers = {
  per_layer : (string * float) list;  (** the BENCHMARK.json per_layer metrics *)
  extra : (string * float) list;  (** workload-specific metrics, results.json only *)
  l_attempted : int;
  l_failed : int;
  l_failures : string list;
  l_detail : Json.t;
}

let variants_for (w : Workloads.t) =
  let open Inlib in
  match w.kind with
  | Workloads.Check { jobs = 1; _ } | Workloads.Pbt _ -> [ Plain; Traced; Memo_off; Snapshot_off ]
  | Workloads.Check _ | Workloads.Fleet _ -> [ Plain; Traced; Memo_off; Snapshot_off; Serial ]

let run_child cfg ~stderr (w : Workloads.t) variant =
  let argv =
    [|
      Sys.executable_name; "inlib"; "--workload"; w.name; "--variant"; Inlib.variant_name variant;
      "--seed"; string_of_int cfg.seed; "--cli"; cfg.cli; "--out"; cfg.out;
    |]
  in
  let r = Proc.run ~stderr argv in
  match List.rev (lines r.stdout) with
  | last :: _ when r.code = 0 -> (
      match Json.of_string last with
      | j -> Ok j
      | exception Json.Error e -> Error (Inlib.variant_name variant ^ ": unreadable summary: " ^ e))
  | _ ->
      let v = Inlib.variant_name variant in
      Error (Printf.sprintf "%s: in-library run exited with status %d" v r.code)

let overhead_samples = 21

(* CLI wall time minus in-library time for the same inputs with no
   exploration left in them — so the difference is not lost in the
   run-to-run noise of a long exploration. Summed over the workload's
   invocations. *)
let cli_overhead cfg ~stderr (w : Workloads.t) invs =
  List.fold_left
    (fun acc (inv : Workloads.invocation) ->
      let argv = Workloads.overhead_argv inv in
      let cli = List.init overhead_samples (fun _ -> (Proc.run ~stderr argv).wall) in
      let lib =
        List.init overhead_samples (fun _ ->
            let t0 = Unix.gettimeofday () in
            Inlib.run_overhead ~cli:cfg.cli ~out:cfg.out ~seed:cfg.seed w inv.item;
            Unix.gettimeofday () -. t0)
      in
      acc +. Proc.median cli -. Proc.median lib)
    0. invs

let layers cfg ~stderr (w : Workloads.t) =
  let variants = variants_for w in
  let results = List.map (fun v -> (v, run_child cfg ~stderr w v)) variants in
  let failures =
    List.concat_map
      (fun (v, r) ->
        match r with
        | Error e -> [ e ]
        | Ok j ->
            List.map
              (fun f -> Inlib.variant_name v ^ ": " ^ Json.to_str f)
              (Json.to_list (Json.get "failures" j)))
      results
  in
  let get v = match List.assoc v results with Ok j -> j | Error _ -> Json.Obj [] in
  (* Every variant — layers off, tracing on, the serial reference — must
     report byte-identically. *)
  let digests =
    List.filter_map
      (fun (_, r) -> match r with Ok j -> Json.member "report_digest" j | Error _ -> None)
      results
    |> List.sort_uniq compare
  in
  let mismatch = List.length digests > 1 in
  let num path j =
    try List.fold_left (fun j k -> Json.get k j) j path |> Json.to_num with Json.Error _ -> nan
  in
  let plain = get Inlib.Plain and traced = get Inlib.Traced in
  (* pbt-sweep's explorer numbers come from re-exploring the sequences the
     wrapped adapters recorded; they must be exactly Pbt.Driver's. *)
  let reexplore_drift =
    match w.kind with
    | Workloads.Pbt _ ->
        num [ "recorded_sequences" ] traced <> num [ "sequences" ] traced
        || num [ "reexplored_executions" ] traced <> num [ "executions" ] traced
    | _ -> false
  in
  let failures =
    failures
    @ (if mismatch then [ "in-library reports differ between variants" ] else [])
    @
    if reexplore_drift then
      [ "the re-explored sequences or executions differ from Pbt.Driver's" ]
    else []
  in
  let failing (_, r) =
    match r with Error _ -> true | Ok j -> Json.to_list (Json.get "failures" j) <> []
  in
  let failed =
    List.length (List.filter failing results) + Bool.to_int mismatch + Bool.to_int reexplore_drift
  in
  let invs = Workloads.invocations ~cli:cfg.cli ~out:cfg.out ~seed:cfg.seed w in
  let overhead = cli_overhead cfg ~stderr w invs in
  let explorer_run = match w.kind with Workloads.Fleet _ -> get Inlib.Serial | _ -> traced in
  let wall j = num [ "wall_s" ] j in
  let count j k = num [ "counts"; k ] j in
  let ex k = num [ "explorer"; k ] explorer_run in
  let ratio a b = if a +. b > 0. then a /. (a +. b) else 0. in
  let executions = count explorer_run "executions" in
  let per_layer =
    [
      ("explorer.run_s", ex "run_s");
      ("explorer.setup_s", ex "setup_s");
      ("explorer.pre_s", ex "pre_s");
      ("explorer.pre_calls", ex "pre_calls");
      ("explorer.post_s", ex "post_s");
      ("explorer.post_calls", ex "post_calls");
      ("explorer.self_s", ex "self_s");
      ("explorer.self_share", ex "self_share");
      ("explorer.us_per_exec", ex "run_s" /. executions *. 1e6);
      ("explorer.executions", executions);
      ("explorer.failure_points", count explorer_run "failure_points");
      ("explorer.rf_decisions", count explorer_run "rf_decisions");
      ("explorer.par_cpu_per_wall", num [ "cpu_s" ] plain /. wall plain);
      ("snapshot.hits", count traced "snapshot_hits");
      ("snapshot.misses", count traced "snapshot_misses");
      ("snapshot.hit_rate", ratio (count traced "snapshot_hits") (count traced "snapshot_misses"));
      ("snapshot.pre_skipped", executions -. ex "pre_calls");
      ("snapshot.net_s", wall (get Inlib.Snapshot_off) -. wall plain);
      ("memo.hits", count traced "memo_hits");
      ("memo.misses", count traced "memo_misses");
      ("memo.saved", count traced "memo_saved");
      ("memo.hit_rate", ratio (count traced "memo_hits") (count traced "memo_misses"));
      ("memo.net_s", wall (get Inlib.Memo_off) -. wall plain);
    ]
    @ List.map
        (fun k -> ("gc." ^ k, num [ "gc"; k ] plain))
        [
          "minor_words";
          "promoted_words";
          "major_words";
          "minor_collections";
          "major_collections";
          "heap_top_mb";
        ]
    @ [
        ("checkpoint.bytes", num [ "checkpoint"; "bytes" ] traced);
        ("checkpoint.save_us", num [ "checkpoint"; "save_us" ] traced);
        ("checkpoint.load_us", num [ "checkpoint"; "load_us" ] traced);
        ("transport.result_frame_us", num [ "checkpoint"; "result_frame_us" ] traced);
        ("cli.overhead_s", overhead);
        (* What recording the traced run's spans cost, as a share of the
           untraced run: the direct difference between one traced and one
           untraced run is buried in run-to-run noise several times larger
           (both walls stay in results.json). *)
        ("trace.overhead_frac", num [ "span_cost_s" ] traced /. wall plain);
      ]
  in
  let extra =
    match w.kind with
    | Workloads.Fleet _ ->
        List.map
          (fun k -> ("coordinator." ^ k, num [ "coordinator"; k ] traced))
          [ "split_s"; "fanout_s"; "shards"; "assignments"; "retries"; "steals" ]
    | Workloads.Pbt _ ->
        let a k = num [ "adapter"; k ] traced in
        let engine = a "structure_total_s" -. a "adapter_s" in
        List.map (fun k -> ("pbt." ^ k ^ "_s", a (k ^ "_s"))) Inlib.adapter_spans
        @ [
            ("pbt.engine_s", engine);
            ("pbt.engine_share", engine /. a "structure_total_s");
            ("pbt.sequences", num [ "sequences" ] plain);
            ("pbt.executions", num [ "executions" ] plain);
          ]
        @ (match Json.member "structure_s" plain with
          | Some (Json.Obj l) -> List.map (fun (id, v) -> ("pbt." ^ id ^ ".s", Json.to_num v)) l
          | _ -> [])
    | Workloads.Check _ -> []
  in
  {
    per_layer;
    extra;
    l_attempted = List.length variants + (2 * overhead_samples * List.length invs);
    l_failed = failed;
    l_failures = failures;
    l_detail =
      Json.Obj
        (List.map
           (fun (v, r) -> (Inlib.variant_name v, match r with Ok j -> j | Error e -> Json.Str e))
           results);
  }

(* --- metric names and units ---------------------------------------------------------- *)

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if name = "peak_rss_mb" || ends "heap_top_mb" then "MB"
  else if ends "_us" || ends ".us_per_exec" then "us"
  else if ends "_s" || ends ".s" then "s"
  else if List.exists ends [ "_share"; "_rate"; "_frac"; "per_wall"; "speedup" ] then "ratio"
  else if ends "_words" then "words"
  else if ends ".bytes" then "bytes"
  else "count"
