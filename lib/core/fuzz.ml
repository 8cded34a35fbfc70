type result = {
  runs : int;
  bugs : Bug.t list;
  buggy_seeds : (int * string list) list;
  total_executions : int;
}

let run ?(config = Config.default) ~seeds scn =
  let outcomes =
    List.map
      (fun seed -> (seed, Explorer.run ~config:{ config with Config.schedule_seed = Some seed } scn))
      seeds
  in
  (* Every distinct symptom a seed surfaced, not just the first: a seed
     whose schedule exposes two different manifestations records both.
     Sorted and deduplicated, so the entry is a function of the seed's
     outcome alone. *)
  let buggy_seeds =
    List.filter_map
      (fun (seed, o) ->
        match o.Explorer.bugs with
        | [] -> None
        | bs -> Some (seed, List.sort_uniq compare (List.map Bug.symptom bs)))
      outcomes
  in
  (* The explorer's merge keeps the smallest record per {!Bug.report_key},
     sorted, so the aggregate is a function of the seed *set*: permuting the
     seed list (or exploring each seed with a different [jobs]) cannot
     change [bugs]. A first-seen scheme would keep whichever seed happened
     to run first. *)
  let merged =
    Explorer.merge_outcomes ~completed:true ~interrupted:false (List.map snd outcomes)
  in
  {
    runs = List.length seeds;
    bugs = merged.Explorer.bugs;
    buggy_seeds = List.sort compare buggy_seeds;
    total_executions = merged.Explorer.stats.Stats.executions;
  }

let found_bug r = r.bugs <> []

let pp ppf r =
  Format.fprintf ppf "@[<v>%d schedules fuzzed, %d executions total@," r.runs r.total_executions;
  if r.bugs = [] then Format.fprintf ppf "no bugs found@]"
  else begin
    Format.fprintf ppf "%d bug(s) on %d seed(s):" (List.length r.bugs)
      (List.length r.buggy_seeds);
    List.iter
      (fun (seed, symptoms) ->
        Format.fprintf ppf "@,  seed %d: %s" seed (String.concat "; " symptoms))
      r.buggy_seeds;
    Format.fprintf ppf "@]"
  end
