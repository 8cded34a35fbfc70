(* In-library runs: the same inputs and configurations as the CLI
   invocations of a workload, driven through the libraries so that spans
   can be recorded around the calls into each layer. Each variant runs in a
   fresh child process (see Measure.layers), so heap growth and GC state
   never carry over from one variant to the next. *)

module Ex = Jaaru.Explorer
module Cfg = Jaaru.Config

type variant =
  | Plain  (** untraced, default layers: the reference for every difference *)
  | Traced  (** spans around every layer boundary *)
  | Memo_off
  | Snapshot_off
  | Serial
      (** a two-core workload's case explored by one traced process at jobs
          1: the single-core reference its report must match, and for a
          fleet the explorer spans its worker processes cannot give *)

let variants =
  [
    ("plain", Plain);
    ("traced", Traced);
    ("memo-off", Memo_off);
    ("snapshot-off", Snapshot_off);
    ("serial", Serial);
  ]

let variant_name v = fst (List.find (fun (_, v') -> v' = v) variants)

(* --- cases, configured exactly as bin/jaaru_cli.ml configures them ------------ *)

let find_case id =
  let pmdk =
    List.map
      (fun (c : Pmdk.Workloads.case) -> (c.id, (c.scenario, c.config)))
      (Pmdk.Workloads.fixed_cases () @ Pmdk.Workloads.checksum_cases ()
     @ Pmdk.Workloads.skiplist_cases ())
  and recipe =
    List.map
      (fun (c : Recipe.Workloads.case) -> (c.id, (c.scenario, c.config)))
      (Recipe.Workloads.fixed_cases () @ Recipe.Workloads.concurrent_cases ())
  in
  match List.assoc_opt id (pmdk @ recipe) with
  | Some c -> c
  | None -> failwith (Printf.sprintf "unknown case %S" id)

(* [jaaru check CASE --max-failures MF --jobs J]: *)
let check_config ~max_failures ~jobs ~snapshot ~memo base =
  {
    base with
    Cfg.max_failures;
    jobs;
    snapshot;
    memo;
    wall_budget = None;
    step_deadline = None;
    mem_budget = None;
    checkpoint_every = 30.;
  }

(* [jaaru fleet] and its workers always explore exhaustively. *)
let fleet_config ~max_failures ~snapshot ~memo base =
  { base with Cfg.max_failures; jobs = 1; snapshot; memo; stop_at_first_bug = false }

let pbt_config ~snapshot ~memo = { Pbt.Runner.config with Cfg.jobs = 1; snapshot; memo }
let pbt_max_cmds = 6

let pbt_adapters = function
  | None -> Pbt.Structures.all ()
  | Some id -> (
      match Pbt.Structures.find id with
      | Some a -> [ a ]
      | None -> failwith ("unknown structure " ^ id))

let worker_argv ~cli ~case ~max_failures ~snapshot ~memo =
  let onoff b = if b then "on" else "off" in
  [|
    cli; "fleet-worker"; case; "--max-failures"; string_of_int max_failures; "--jobs"; "1";
    "--snapshot"; onoff snapshot; "--memo"; onoff memo; "--heartbeat-period"; "0.05";
  |]

(* --- span wrappers ------------------------------------------------------------- *)

let wrap_scenario ~parent ~item (s : Ex.scenario) =
  let pre = Spans.intern "explorer.pre" and post = Spans.intern "explorer.post" in
  {
    s with
    Ex.pre = (fun ctx -> Spans.within ~name:pre ~item ~parent (fun () -> s.pre ctx));
    post = (fun ctx -> Spans.within ~name:post ~item ~parent (fun () -> s.post ctx));
  }

let traced_run ~parent ~id ~config scenario =
  let item = Spans.intern id in
  let run = Spans.open_ ~name:(Spans.intern "explorer.run") ~item ~parent in
  let o = Ex.run ~config (wrap_scenario ~parent:run ~item scenario) in
  Spans.close run;
  o

(* An adapter with the same id (so Pbt.Driver generates exactly the same
   sequences) whose calls are spans. It also hands [record] the command
   sequence of each exploration: only the failure-free root execution's
   pre-failure program reaches its final observe — every other execution
   crashes before it, or resumes from a snapshot straight into recovery —
   so the commands issued before that call are the whole sequence. *)
let wrap_adapter ~parent ~record (a : Pbt.Structures.adapter) : Pbt.Structures.adapter =
  let module S = (val a : Pbt.Structures.STRUCTURE) in
  let item = Spans.intern S.id and n s = Spans.intern ("pbt." ^ s) in
  let create = n "create" and recover = n "recover" and apply = n "apply" and lookup = n "lookup"
  and observe = n "observe" and verify = n "verify" in
  let span name f = Spans.within ~name ~item ~parent f in
  (module struct
    let id = S.id
    let family = S.family
    let model = S.model
    let discipline = S.discipline

    type t = { inner : S.t; recovering : bool; mutable issued : Pbt.Cmd.t list }

    let open_ ctx =
      let recovering = Jaaru.Ctx.in_recovery ctx in
      let inner = span (if recovering then recover else create) (fun () -> S.open_ ctx) in
      { inner; recovering; issued = [] }

    let apply t c =
      t.issued <- c :: t.issued;
      span apply (fun () -> S.apply t.inner c)

    let lookup t k =
      t.issued <- Pbt.Cmd.Lookup k :: t.issued;
      span lookup (fun () -> S.lookup t.inner k)

    let observe t =
      if not t.recovering then record (List.rev t.issued);
      span observe (fun () -> S.observe t.inner)

    let verify t = span verify (fun () -> S.verify t.inner)
  end)

(* --- results --------------------------------------------------------------------- *)

type counts = {
  executions : int;
  failure_points : int;
  rf_decisions : int;
  snapshot_hits : int;
  snapshot_misses : int;
  memo_hits : int;
  memo_misses : int;
  memo_saved : int;
}

let zero =
  {
    executions = 0;
    failure_points = 0;
    rf_decisions = 0;
    snapshot_hits = 0;
    snapshot_misses = 0;
    memo_hits = 0;
    memo_misses = 0;
    memo_saved = 0;
  }

(* Counts summed over the independent explorations of a run (the cases of
   seq-verify, the sequences of pbt-sweep). *)
let add c (s : Jaaru.Stats.t) =
  {
    executions = c.executions + s.executions;
    failure_points = c.failure_points + s.failure_points;
    rf_decisions = c.rf_decisions + s.rf_decisions;
    snapshot_hits = c.snapshot_hits + s.snapshot_hits;
    snapshot_misses = c.snapshot_misses + s.snapshot_misses;
    memo_hits = c.memo_hits + s.memo_hits;
    memo_misses = c.memo_misses + s.memo_misses;
    memo_saved = c.memo_saved + s.memo_saved;
  }

let counts_json c =
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.int v))
       [
         ("executions", c.executions);
         ("failure_points", c.failure_points);
         ("rf_decisions", c.rf_decisions);
         ("snapshot_hits", c.snapshot_hits);
         ("snapshot_misses", c.snapshot_misses);
         ("memo_hits", c.memo_hits);
         ("memo_misses", c.memo_misses);
         ("memo_saved", c.memo_saved);
       ])

type run = {
  wall : float;
  counts : counts;
  report : string;  (** deterministic report text: must not depend on the variant *)
  failures : string list;
  outcomes : (string * Cfg.t * Ex.outcome) list;  (** scenario name, config, outcome *)
  extra : (string * Json.t) list;
}

let clean_check id (o : Ex.outcome) =
  if Ex.found_bug o then [ id ^ ": clean case reported a bug" ]
  else if o.stats.Jaaru.Stats.interrupted then [ id ^ ": run interrupted" ]
  else []

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* --- the three kinds of workload ------------------------------------------------- *)

let explore_cases ~trace ~configure cases =
  let one id =
    let scenario, base = find_case id in
    let config = configure base in
    let o =
      if trace then traced_run ~parent:Spans.root ~id ~config scenario else Ex.run ~config scenario
    in
    (id, scenario.Ex.name, config, o)
  in
  let results, wall = timed (fun () -> List.map one cases) in
  {
    wall;
    counts = List.fold_left (fun c (_, _, _, o) -> add c o.Ex.stats) zero results;
    report =
      String.concat ""
        (List.map (fun (id, _, _, o) -> Format.asprintf "%s@.%a@." id Ex.pp_report o) results);
    failures = List.concat_map (fun (id, _, _, o) -> clean_check id o) results;
    outcomes = List.map (fun (_, name, config, o) -> (name, config, o)) results;
    extra = [];
  }

let run_fleet ~trace ~cli ~scratch ~case ~workers ~max_failures ~snapshot ~memo =
  let scenario, base = find_case case in
  let config = fleet_config ~max_failures ~snapshot ~memo base in
  let split_end = ref nan in
  let fleet =
    {
      (Fleet.Coordinator.default ~scratch) with
      Fleet.Coordinator.workers;
      worker_argv = Some (worker_argv ~cli ~case ~max_failures ~snapshot ~memo);
      log =
        (fun line ->
          if Float.is_nan !split_end && String.starts_with ~prefix:"fleet: " line then
            split_end := Unix.gettimeofday ());
    }
  in
  Proc.mkdir_p scratch;
  Jaaru.Explorer.clear_interrupt ();
  let t0 = Unix.gettimeofday () in
  let r =
    Fun.protect
      ~finally:(fun () -> Proc.rm_rf scratch)
      (fun () -> Fleet.Coordinator.run ~fleet ~config ~scenario)
  in
  let t1 = Unix.gettimeofday () in
  let o = r.Fleet.Coordinator.outcome and f = r.Fleet.Coordinator.fleet in
  (* A run too small to shard never logs the split event. *)
  let split = if Float.is_nan !split_end then t1 else !split_end in
  if trace then begin
    let item = Spans.intern case in
    let add name ~parent a b = Spans.add ~name:(Spans.intern name) ~item ~parent a b in
    let run = add "coordinator.run" ~parent:Spans.root t0 t1 in
    ignore (add "coordinator.split" ~parent:run t0 split);
    ignore (add "coordinator.fanout" ~parent:run split t1)
  end;
  let failures =
    clean_check case o
    @ (if r.Fleet.Coordinator.remaining <> [] then [ case ^ ": unexplored shards remain" ] else [])
    @ if r.Fleet.Coordinator.interrupted then [ case ^ ": fleet interrupted" ] else []
  in
  {
    wall = t1 -. t0;
    counts = add zero o.Ex.stats;
    report = Format.asprintf "%s@.%a@." case Ex.pp_report o;
    failures;
    outcomes = [ (scenario.Ex.name, config, o) ];
    extra =
      [
        ( "coordinator",
          Json.Obj
            [
              ("split_s", Json.Num (split -. t0));
              ("fanout_s", Json.Num (t1 -. split));
              ("shards", Json.int f.shards);
              ("assignments", Json.int f.assignments);
              ("retries", Json.int f.retries);
              ("steals", Json.int f.steals);
            ] );
      ];
  }

let run_pbt ~trace ~structure ~count ~seed ~snapshot ~memo =
  let config = pbt_config ~snapshot ~memo in
  let one a =
    let id = Pbt.Structures.id a in
    let t0 = Unix.gettimeofday () in
    let r, seqs =
      if trace then begin
        let name = Spans.intern "pbt.structure" in
        let span = Spans.open_ ~name ~item:(Spans.intern id) ~parent:Spans.root in
        let seqs = ref [] in
        let a' = wrap_adapter ~parent:span ~record:(fun cmds -> seqs := cmds :: !seqs) a in
        let r = Pbt.Driver.run_structure ~config ~seed ~count ~max_cmds:pbt_max_cmds a' in
        Spans.close span;
        (r, List.rev !seqs)
      end
      else (Pbt.Driver.run_structure ~config ~seed ~count ~max_cmds:pbt_max_cmds a, [])
    in
    (a, r, seqs, Unix.gettimeofday () -. t0)
  in
  let results, wall = timed (fun () -> List.map one (pbt_adapters structure)) in
  (* Traced: explore the recorded sequences once more through the runner's
     own scenario, wrapped like every check case, for the explorer-layer
     spans and counts Pbt.Driver does not return. *)
  let reexplored =
    List.concat_map
      (fun (a, _, seqs, _) ->
        List.map
          (fun cmds ->
            let scenario = Pbt.Runner.scenario a cmds and id = Pbt.Structures.id a in
            (scenario.Ex.name, config, traced_run ~parent:Spans.root ~id ~config scenario))
          seqs)
      results
  in
  let sum f = List.fold_left (fun acc (_, r, _, _) -> acc + f r) 0 results in
  let sequences = sum (fun r -> r.Pbt.Driver.sequences)
  and executions = sum (fun r -> r.Pbt.Driver.executions) in
  let counts =
    if trace then List.fold_left (fun c (_, _, o) -> add c o.Ex.stats) zero reexplored
    else { zero with executions }
  in
  {
    wall;
    counts;
    report =
      String.concat ""
        (List.map (fun (_, r, _, _) -> Format.asprintf "%a@." Pbt.Driver.pp_report r) results);
    failures =
      List.concat_map
        (fun (_, r, _, _) ->
          if Pbt.Driver.found_bug r then [ r.Pbt.Driver.structure ^ ": pbt reported a failure" ]
          else if r.Pbt.Driver.interrupted then [ r.Pbt.Driver.structure ^ ": pbt interrupted" ]
          else [])
        results;
    outcomes = reexplored;
    extra =
      [
        ("sequences", Json.int sequences);
        ("executions", Json.int executions);
        ( "structure_s",
          Json.Obj (List.map (fun (a, _, _, t) -> (Pbt.Structures.id a, Json.Num t)) results) );
      ]
      @
      if trace then
        [
          ("recorded_sequences", Json.int (List.length reexplored));
          ("reexplored_executions", Json.int counts.executions);
        ]
      else [];
  }

let run_variant ~cli ~out ~seed (w : Workloads.t) variant =
  let trace = variant = Traced || variant = Serial in
  let snapshot = variant <> Snapshot_off and memo = variant <> Memo_off in
  let max_failures = Workloads.max_failures in
  match w.kind with
  | Workloads.Check { cases; jobs } ->
      let jobs = if variant = Serial then 1 else jobs in
      explore_cases ~trace ~configure:(check_config ~max_failures ~jobs ~snapshot ~memo) cases
  | Workloads.Fleet { case; _ } when variant = Serial ->
      explore_cases ~trace ~configure:(fleet_config ~max_failures ~snapshot ~memo) [ case ]
  | Workloads.Fleet { case; workers } ->
      let scratch = Filename.concat out (Printf.sprintf "fleet-scratch-%d" (Unix.getpid ())) in
      run_fleet ~trace ~cli ~scratch ~case ~workers ~max_failures ~snapshot ~memo
  | Workloads.Pbt { structure; count } -> run_pbt ~trace ~structure ~count ~seed ~snapshot ~memo

(* The same inputs with no exploration work left (--max-failures 0, or
   --count 0): the in-library side of the CLI overhead. *)
let run_overhead ~cli ~out ~seed (w : Workloads.t) item =
  let max_failures = 0 and snapshot = true and memo = true in
  match w.kind with
  | Workloads.Check { jobs; _ } ->
      let configure = check_config ~max_failures ~jobs ~snapshot ~memo in
      ignore (explore_cases ~trace:false ~configure [ item ])
  | Workloads.Fleet { case; workers } ->
      let scratch = Filename.concat out (Printf.sprintf "fleet-scratch-%d" (Unix.getpid ())) in
      ignore (run_fleet ~trace:false ~cli ~scratch ~case ~workers ~max_failures ~snapshot ~memo)
  | Workloads.Pbt { structure; _ } ->
      ignore (run_pbt ~trace:false ~structure ~count:0 ~seed ~snapshot ~memo)

(* Shipping each result the way a fleet worker does: Checkpoint.save and
   load of the run's result checkpoint, and one Transport frame carrying it
   through a pipe. Summed over the run's explorations, in microseconds. *)
let checkpoint_costs ~out outcomes =
  let path = Filename.concat out (Printf.sprintf "result-%d.ckpt" (Unix.getpid ())) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let reader = Fleet.Transport.reader rd in
  let rec next () =
    match Fleet.Transport.drain reader with
    | m :: _ -> m
    | [] ->
        if Fleet.Transport.at_eof reader then failwith "transport: pipe closed";
        ignore (Unix.select [ Fleet.Transport.reader_fd reader ] [] [] 1.0);
        next ()
  in
  let us t0 = (Unix.gettimeofday () -. t0) *. 1e6 in
  let totals =
    List.fold_left
      (fun (bytes, save, load, frame) (name, config, (o : Ex.outcome)) ->
        let cp =
          Jaaru.Checkpoint.make
            ~fingerprint:(Jaaru.Checkpoint.fingerprint ~workload:name config)
            ~frontier:[] ~bugs:o.bugs ~multi_rf:o.multi_rf ~perf:o.perf ~findings:o.findings
            ~stats:o.stats
        in
        let t0 = Unix.gettimeofday () in
        Jaaru.Checkpoint.save cp path;
        let s = us t0 in
        let t1 = Unix.gettimeofday () in
        ignore (Jaaru.Checkpoint.load path);
        let l = us t1 in
        let payload = Jaaru.Checkpoint.to_string cp in
        let msg = Fleet.Transport.Result { shard = 0; payload } in
        let t2 = Unix.gettimeofday () in
        (* A frame larger than the pipe buffer needs a concurrent reader. *)
        let writer =
          if String.length payload < 60_000 then (Fleet.Transport.write wr msg; None)
          else Some (Thread.create (fun () -> Fleet.Transport.write wr msg) ())
        in
        let got = next () in
        Option.iter Thread.join writer;
        let f = us t2 in
        if got <> msg then failwith "transport: frame did not round-trip";
        (bytes + String.length payload, save +. s, load +. l, frame +. f))
      (0, 0., 0., 0.) outcomes
  in
  Fleet.Transport.close_reader reader;
  Unix.close wr;
  (try Sys.remove path with Sys_error _ -> ());
  let bytes, save, load, frame = totals in
  Json.Obj
    [
      ("bytes", Json.int bytes);
      ("save_us", Json.Num save);
      ("load_us", Json.Num load);
      ("result_frame_us", Json.Num frame);
    ]

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  Json.Obj
    [
      ("minor_words", Json.Num (b.minor_words -. a.minor_words));
      ("promoted_words", Json.Num (b.promoted_words -. a.promoted_words));
      ("major_words", Json.Num (b.major_words -. a.major_words));
      ("minor_collections", Json.int (b.minor_collections - a.minor_collections));
      ("major_collections", Json.int (b.major_collections - a.major_collections));
      ( "heap_top_mb",
        Json.Num (float_of_int (b.top_heap_words * (Sys.word_size / 8)) /. 1048576.) );
    ]

let adapter_spans = [ "create"; "recover"; "apply"; "lookup"; "observe"; "verify" ]

(* One variant, run by a child process; the summary goes to stdout as one
   JSON line and the spans are appended to OUT/spans.jsonl. *)
let child ~cli ~out ~seed (w : Workloads.t) variant =
  Proc.mkdir_p out;
  Spans.reset ();
  let gc0 = Gc.quick_stat () and ru0 = Proc.rusage () in
  let r = try Ok (run_variant ~cli ~out ~seed w variant) with e -> Error (Printexc.to_string e) in
  let gc1 = Gc.quick_stat () and ru1 = Proc.rusage () in
  let fields =
    match r with
    | Error msg -> [ ("ok", Json.Bool false); ("failures", Json.Arr [ Json.Str msg ]) ]
    | Ok r ->
        let spans = Spans.all () in
        let jobs =
          match (w.kind, variant) with Workloads.Check { jobs; _ }, Traced -> jobs | _ -> 1
        in
        let traced =
          if spans = [] then []
          else begin
            Spans.append_jsonl ~path:(Filename.concat out "spans.jsonl") ~workload:w.name spans;
            let by_name = Spans.self_times spans in
            let total n = match List.assoc_opt n by_name with Some (_, t, _) -> t | None -> 0. in
            let adapter = List.fold_left (fun a n -> a +. total ("pbt." ^ n)) 0. adapter_spans in
            let explorer = Spans.explorer ~jobs spans in
            [
              ("spans_recorded", Json.int (List.length spans));
              ("span_cost_s", Json.Num (float_of_int (List.length spans) *. Spans.cost ()));
              ("explorer", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) explorer));
              ( "spans",
                Json.Arr
                  (List.map
                     (fun (name, (n, t, s)) ->
                       Json.Obj
                         [
                           ("name", Json.Str name);
                           ("count", Json.int n);
                           ("total_s", Json.Num t);
                           ("self_s", Json.Num s);
                         ])
                     by_name) );
              ( "adapter",
                Json.Obj
                  (("adapter_s", Json.Num adapter)
                  :: ("structure_total_s", Json.Num (total "pbt.structure"))
                  :: List.map (fun n -> (n ^ "_s", Json.Num (total ("pbt." ^ n)))) adapter_spans) );
            ]
          end
        in
        let costs =
          if variant = Traced then [ ("checkpoint", checkpoint_costs ~out r.outcomes) ] else []
        in
        [
          ("ok", Json.Bool (r.failures = []));
          ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.failures));
          ("wall_s", Json.Num r.wall);
          ("cpu_s", Json.Num (ru1.(0) +. ru1.(1) -. ru0.(0) -. ru0.(1)));
          ("gc", gc_delta gc0 gc1);
          ("counts", counts_json r.counts);
          ("report_digest", Json.Str (Digest.to_hex (Digest.string r.report)));
        ]
        @ traced @ costs @ r.extra
  in
  print_endline (Json.to_string (Json.Obj (("variant", Json.Str (variant_name variant)) :: fields)))
