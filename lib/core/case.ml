type t = {
  id : string;
  benchmark : string;
  description : string;
  expected_symptom : string list option;
  lint_roots : string list;
  scenario : Explorer.scenario;
  config : Config.t;
}

let v ~id ~benchmark ~description ?expected ?(lint_roots = []) ~config scenario =
  { id; benchmark; description; expected_symptom = expected; lint_roots; scenario; config }

let find cases id = List.find (fun c -> c.id = id) cases

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let verdict c bugs =
  match c.expected_symptom with
  | None -> if bugs = [] then Ok () else Error "clean case reported a bug"
  | Some fragments ->
      let symptoms = List.sort_uniq compare (List.map Bug.symptom bugs) in
      if List.exists (fun s -> List.exists (contains s) fragments) symptoms then Ok ()
      else if symptoms = [] then Error "seeded bug was not found"
      else Error ("seeded bug was not found; found instead: " ^ String.concat "; " symptoms)
