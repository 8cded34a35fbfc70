let config =
  {
    Jaaru.Config.default with
    Jaaru.Config.max_steps = 60_000;
    stop_at_first_bug = false;
    report_multi_rf = false;
    trace_depth = 0;
  }

(* The unexplainable state rendered into the assertion message: distinct
   unexplainable recoveries report as distinct bugs (the message is part of
   the dedup key), and the witness names the state, not just the fact.
   Bounded so Bug.normalize_message never truncates mid-binding. *)
let render_obs obs =
  let n = List.length obs in
  let shown = List.filteri (fun i _ -> i < 6) obs in
  let bindings =
    String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v) shown)
  in
  if n > 6 then Printf.sprintf "{%s, ... %d more}" bindings (n - 6)
  else Printf.sprintf "{%s}" bindings

let scenario (module S : Structures.STRUCTURE) cmds =
  (* Precomputed once per sequence and shared read-only across worker
     domains; the per-replay cost of the oracle is one set lookup. *)
  let explainable = Oracle.explainable S.model S.discipline cmds in
  let pre ctx =
    let t = S.open_ ctx in
    let model = ref Fake.empty in
    List.iter
      (fun c ->
        match c with
        | Cmd.Lookup k ->
            Jaaru.Ctx.check ctx ~label:(S.id ^ ":pbt-lookup")
              (S.lookup t k = Fake.lookup S.model !model k)
              (Printf.sprintf "pbt: lookup %d disagrees with the model" k)
        | c ->
            S.apply t c;
            model := Fake.apply S.model !model c)
      cmds;
    (* Pre-crash the structure has no excuse: its observable state must
       equal the fake of the whole sequence. This is also the entire check
       of the no-crash agreement property (max_failures = 0 runs only this
       program). *)
    Jaaru.Ctx.check ctx ~label:(S.id ^ ":pbt-final")
      (S.observe t = Fake.observe !model)
      "pbt: completed state differs from the model"
  in
  let post ctx =
    let t = S.open_ ctx in
    S.verify t;
    let obs = S.observe t in
    Jaaru.Ctx.check ctx ~label:(S.id ^ ":pbt-oracle")
      (Oracle.mem explainable obs)
      ("pbt: recovered state " ^ render_obs obs
     ^ " is not the model of any persist-consistent command subset")
  in
  Jaaru.Explorer.scenario ~name:("pbt-" ^ S.id) ~pre ~post

let explore ?config:(c = config) adapter cmds =
  Jaaru.Explorer.run ~config:c (scenario adapter cmds)
