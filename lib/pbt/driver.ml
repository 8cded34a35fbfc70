type failure = { cmds : Cmd.t list; shrink_steps : int; symptoms : string list }

type report = {
  structure : string;
  seed : int;
  requested : int;
  max_cmds : int;
  sequences : int;
  executions : int;
  failure : failure option;
  interrupted : bool;
  wall : float;
}

let symptoms_of outcome =
  List.sort_uniq compare (List.map Jaaru.Bug.symptom outcome.Jaaru.Explorer.bugs)

let run_structure ?(config = Runner.config) ?deadline ~seed ~count ~max_cmds adapter =
  let module S = (val adapter : Structures.STRUCTURE) in
  let t0 = Unix.gettimeofday () in
  let sequences = ref 0 in
  let executions = ref 0 in
  let interrupted = ref false in
  (* The property QCheck2 drives: a sequence passes iff exhaustively
     exploring its crash tree reports no bug. Once a deadline trips, the
     property answers a vacuous [true] for everything that follows —
     remaining generation (and any in-flight shrink) flies by without
     exploring, and the partial report says so. *)
  let prop cmds =
    if !interrupted then true
    else
      let over, budget =
        match deadline with
        | None -> (false, None)
        | Some d ->
            let remaining = d -. Unix.gettimeofday () in
            (remaining <= 0., Some (max 0.05 remaining))
      in
      if over then begin
        interrupted := true;
        true
      end
      else begin
        let config = { config with Jaaru.Config.wall_budget = budget } in
        let o = Runner.explore ~config adapter cmds in
        if o.Jaaru.Explorer.stats.Jaaru.Stats.interrupted then begin
          interrupted := true;
          true
        end
        else begin
          incr sequences;
          executions := !executions + o.Jaaru.Explorer.stats.Jaaru.Stats.executions;
          o.Jaaru.Explorer.bugs = []
        end
      end
  in
  let rand = Random.State.make [| 0x9aa3; seed; Hashtbl.hash S.id |] in
  let cell = QCheck2.Test.make_cell ~count ~name:S.id (Cmd.gen ~max_cmds) prop in
  let result = QCheck2.Test.check_cell ~rand cell in
  let witness cmds shrink_steps =
    (* Re-explore the shrunk counterexample (uncounted) for its bug list —
       deterministic, so the witness is too. *)
    let o = Runner.explore ~config adapter cmds in
    { cmds; shrink_steps; symptoms = symptoms_of o }
  in
  let failure =
    match QCheck2.TestResult.get_state result with
    | QCheck2.TestResult.Success -> None
    | QCheck2.TestResult.Failed { instances = [] } -> None
    | QCheck2.TestResult.Failed { instances = c :: _ } ->
        Some (witness c.QCheck2.TestResult.instance c.QCheck2.TestResult.shrink_steps)
    | QCheck2.TestResult.Failed_other { msg } ->
        Some { cmds = []; shrink_steps = 0; symptoms = [ "driver failure: " ^ msg ] }
    | QCheck2.TestResult.Error { instance; exn; _ } ->
        Some
          {
            cmds = instance.QCheck2.TestResult.instance;
            shrink_steps = instance.QCheck2.TestResult.shrink_steps;
            symptoms = [ "driver exception: " ^ Printexc.to_string exn ];
          }
  in
  {
    structure = S.id;
    seed;
    requested = count;
    max_cmds;
    sequences = !sequences;
    executions = !executions;
    failure;
    interrupted = !interrupted;
    wall = Unix.gettimeofday () -. t0;
  }

let found_bug r = r.failure <> None
let comparable_report r = { r with wall = 0. }

(* The nightly coverage artifact: a schema-versioned JSON summary CI can
   archive and trend. Hand-rolled — the library links nothing new — and
   deterministic: [wall] is never written. *)

let json_schema = "jaaru-pbt-coverage/1"

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let json_report reports =
  let b = Buffer.create 1024 in
  let str s =
    Buffer.add_char b '"';
    json_escape b s;
    Buffer.add_char b '"'
  in
  let field ?(last = false) pad k write =
    Buffer.add_string b pad;
    str k;
    Buffer.add_string b ": ";
    write ();
    Buffer.add_string b (if last then "\n" else ",\n")
  in
  Buffer.add_string b "{\n";
  field "  " "schema" (fun () -> str json_schema);
  field "  " ~last:true "structures" (fun () ->
      if reports = [] then Buffer.add_string b "[]"
      else begin
        Buffer.add_string b "[\n";
        List.iteri
          (fun i r ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b "    {\n";
            field "      " "structure" (fun () -> str r.structure);
            field "      " "seed" (fun () -> Buffer.add_string b (string_of_int r.seed));
            field "      " "requested" (fun () -> Buffer.add_string b (string_of_int r.requested));
            field "      " "max_cmds" (fun () -> Buffer.add_string b (string_of_int r.max_cmds));
            field "      " "sequences" (fun () -> Buffer.add_string b (string_of_int r.sequences));
            field "      " "executions" (fun () -> Buffer.add_string b (string_of_int r.executions));
            field "      " "interrupted" (fun () ->
                Buffer.add_string b (string_of_bool r.interrupted));
            field "      " ~last:true "failure" (fun () ->
                match r.failure with
                | None -> Buffer.add_string b "null"
                | Some f ->
                    Buffer.add_string b "{\n";
                    field "        " "shrink_steps" (fun () ->
                        Buffer.add_string b (string_of_int f.shrink_steps));
                    field "        " "commands" (fun () -> str (Cmd.render_list f.cmds));
                    field "        " ~last:true "symptoms" (fun () ->
                        Buffer.add_char b '[';
                        List.iteri
                          (fun j s ->
                            if j > 0 then Buffer.add_string b ", ";
                            str s)
                          f.symptoms;
                        Buffer.add_char b ']');
                    Buffer.add_string b "      }");
            Buffer.add_string b "    }")
          reports;
        Buffer.add_string b "\n  ]"
      end);
  Buffer.add_string b "}\n";
  Buffer.contents b

let pp_report ppf r =
  match r.failure with
  | None ->
      Format.fprintf ppf "@[<v>pbt %s: %s — %d sequence(s), %d execution(s) explored@]"
        r.structure
        (if r.interrupted then "interrupted (time budget)" else "ok")
        r.sequences r.executions
  | Some f ->
      Format.fprintf ppf
        "@[<v>pbt %s: FAIL — %d command(s) after %d shrink step(s)@,\
        \  commands: %s@,"
        r.structure (List.length f.cmds) f.shrink_steps (Cmd.render_list f.cmds);
      List.iter (fun s -> Format.fprintf ppf "  bug: %s@," s) f.symptoms;
      Format.fprintf ppf
        "  repro: jaaru pbt --structure %s --seed %d --count %d --max-cmds %d@]" r.structure
        r.seed r.requested r.max_cmds
