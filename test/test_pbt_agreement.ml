(* Fake-vs-real agreement with no crashes: for every structure adapter, a
   command sequence run to completion (max_failures = 0, so no failure point
   ever branches) must leave the real structure's observable state equal to
   the fake's, with every intermediate lookup agreeing too. This catches
   adapter and model bugs independently of crash exploration — a wrong fake
   would otherwise surface as a confusing oracle failure. *)

let no_crash_config =
  { Pbt.Runner.config with Jaaru.Config.max_failures = 0; snapshot = false }

let agreement_test adapter =
  let module S = (val adapter : Pbt.Structures.STRUCTURE) in
  let prop cmds =
    let o = Pbt.Runner.explore ~config:no_crash_config adapter cmds in
    match o.Jaaru.Explorer.bugs with
    | [] -> true
    | b :: _ -> QCheck2.Test.fail_report (Jaaru.Bug.symptom b)
  in
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 0x0b5; Hashtbl.hash S.id |])
    (QCheck2.Test.make ~count:500 ~name:S.id
       ~print:(fun cmds -> Pbt.Cmd.render_list cmds)
       (Pbt.Cmd.gen ~max_cmds:8) prop)

let () =
  Alcotest.run "pbt-agreement"
    [ ("fake-vs-real", List.map agreement_test (Pbt.Structures.all ())) ]
