(* The paper's headline experiment as a program: hunt all eighteen RECIPE
   bugs (Fig. 13) and print the table the paper reports.

     dune exec examples/recipe_hunt.exe *)

open Jaaru

let () =
  Format.printf "%-14s %-12s %-52s %s@." "Bug ID" "Benchmark" "Type of bug" "Manifestation";
  let found = ref 0 in
  List.iter
    (fun (c : Case.t) ->
      let o = Explorer.run ~config:c.config c.scenario in
      if Case.verdict c o.Explorer.bugs = Ok () then incr found;
      let symptom = match o.Explorer.bugs with [] -> "NOT FOUND" | b :: _ -> Bug.symptom b in
      Format.printf "%-14s %-12s %-52s %s@." c.id c.benchmark c.description symptom)
    (Recipe.Workloads.fig13_cases ());
  Format.printf "@.%d / 18 seeded bugs found@." !found
