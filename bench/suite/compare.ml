(* Parent-versus-change comparison of two built checkouts: alternating-order
   pairs of untraced runs, each side's median and quartiles per metric and
   workload, the change's win fraction, and a verdict against the bounds in
   the base checkout's BENCHMARK.json, whose run_seconds also sets how long
   each run measures. *)

type side = { correct : bool; metrics : (string * float) list }

let absolute dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir

(* Runs one side's own suite in its own checkout, so each side measures its
   own CLI against its own golden files. *)
let run_side ~root ~workload ~seed ~seconds =
  let exe = Filename.concat root "_build/default/bench/suite/suite.exe" in
  let cwd = Sys.getcwd () in
  Sys.chdir root;
  let r =
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () ->
        Proc.run
          [|
            exe; "bench"; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" seconds; "--trace"; "0";
          |])
  in
  match List.rev (Measure.lines r.stdout) with
  | last :: _ -> (
      try
        let j = Json.of_string last in
        let metrics =
          match Json.get "metrics" j with
          | Json.Obj l -> List.map (fun (k, v) -> (k, Json.num "value" v)) l
          | _ -> []
        in
        { correct = Json.to_bool (Json.get "correct" j); metrics }
      with Json.Error _ -> { correct = false; metrics = [] })
  | [] -> { correct = false; metrics = [] }

(* The rule of choosing-metrics §5 and §8: a gain needs wins in at least
   nine pairs in ten and a median difference beyond the parent's own
   quartile spread; a metric whose spread exceeds its bound is unresolved
   unless every run of the change beats every run of the parent. *)
let verdict ~lower_better ~bound ~pairs base head =
  let better a b = if lower_better then a < b else a > b in
  let wins = List.length (List.filter (fun (b, h) -> better h b) pairs) in
  let mb = Proc.median base and mh = Proc.median head in
  let q1b, q3b = Proc.quartiles base and q1h, q3h = Proc.quartiles head in
  let spread = Float.max ((q3b -. q1b) /. mb) ((q3h -. q1h) /. mh) in
  let gain = if lower_better then mb -. mh else mh -. mb in
  let win_frac = float_of_int wins /. float_of_int (max 1 (List.length pairs)) in
  let v =
    if win_frac >= 0.9 && gain > q3b -. q1b then "improved"
    else if spread > bound then
      if List.for_all (fun h -> List.for_all (better h) base) head then "no worse" else "unresolved"
    else if -.gain > bound *. Float.abs mb then "regressed"
    else "no worse"
  in
  (win_frac, v)

let run base head npairs names seed =
  let base = absolute base and head = absolute head in
  let bench = Json.of_file (Filename.concat base "BENCHMARK.json") in
  let seconds = Json.num "run_seconds" bench in
  let workloads =
    if names <> [] then names
    else
      Json.to_list (Json.get "workloads" bench)
      |> List.map (fun w -> Json.to_str (Json.get "name" w))
  in
  let bounds =
    List.map
      (fun m ->
        let lower = Json.to_str (Json.get "better" m) = "lower" in
        (Json.to_str (Json.get "name" m), (lower, Json.num "bound" m)))
      (Json.to_list (Json.get "end_to_end" bench))
  in
  let regressed = ref false and head_failed = ref [] in
  Printf.printf "%-12s %-12s %28s %28s %6s  %s\n" "workload" "metric" "base median [q1, q3]"
    "head median [q1, q3]" "wins" "verdict";
  List.iter
    (fun workload ->
      let runs =
        List.init npairs (fun i ->
            let b () = run_side ~root:base ~workload ~seed:(seed + i) ~seconds
            and h () = run_side ~root:head ~workload ~seed:(seed + i) ~seconds in
            if i mod 2 = 0 then
              let rb = b () in
              (rb, h ())
            else
              let rh = h () in
              (b (), rh))
      in
      (* A failing head run fails the comparison; a failing base run only
         leaves it unresolved. *)
      let head_fails = List.length (List.filter (fun (_, h) -> not h.correct) runs) in
      let base_failed = List.exists (fun (b, _) -> not b.correct) runs in
      if head_fails > 0 then
        head_failed := Printf.sprintf "%s: %d of %d head runs" workload head_fails npairs :: !head_failed;
      let one_core = Proc.nproc () < 2 && (workload = "conc-par2" || workload = "conc-fleet2") in
      List.iter
        (fun (metric, (lower_better, bound)) ->
          let get s = List.assoc_opt metric s.metrics in
          let pairs =
            List.filter_map
              (fun (b, h) -> match (get b, get h) with Some x, Some y -> Some (x, y) | _ -> None)
              runs
          in
          let base_v = List.map fst pairs and head_v = List.map snd pairs in
          let win_frac, v = verdict ~lower_better ~bound ~pairs base_v head_v in
          let v =
            if head_fails > 0 then "failed (head runs)"
            else if pairs = [] || base_failed then "unresolved (failed base runs)"
            else if one_core then "unresolved (fewer than 2 CPUs)"
            else v
          in
          if v = "regressed" then regressed := true;
          let show vs =
            let q1, q3 = Proc.quartiles vs in
            Printf.sprintf "%.4f [%.4f, %.4f]" (Proc.median vs) q1 q3
          in
          Printf.printf "%-12s %-12s %28s %28s %5.0f%%  %s\n%!" workload metric (show base_v)
            (show head_v) (100. *. win_frac) v)
        bounds)
    workloads;
  List.iter
    (Printf.printf "FAILED %s failed the correctness gate\n")
    (List.rev !head_failed);
  if !regressed || !head_failed <> [] then 1 else 0
