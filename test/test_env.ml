(* Shared test-environment knobs. The CI matrix runs the whole suite once per
   JAARU_TEST_JOBS value; suites that sweep a worker-count axis call
   [jobs_matrix] so the swept values follow the matrix leg instead of being
   hard-coded. Unset (local `dune runtest`) keeps each suite's default sweep,
   so a plain local run still covers several worker counts at once. *)

let jobs_override =
  match Sys.getenv_opt "JAARU_TEST_JOBS" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | Some _ | None ->
          invalid_arg (Printf.sprintf "JAARU_TEST_JOBS must be a positive integer, got %S" s))

(* [jobs_matrix ~default] is the list of worker counts a determinism sweep
   should cover: [default] when the environment does not pin one, the pinned
   value alone otherwise. *)
let jobs_matrix ~default = match jobs_override with Some j -> [ j ] | None -> default

(* [contains ~needle hay]: whether [needle] occurs in [hay]. *)
let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0
