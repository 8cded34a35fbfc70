(* Child processes, timed from the outside: wall clock from spawn to reap,
   spawn to the first byte on stdout, and wait4 accounting for CPU time and
   peak resident set. One child runs at a time. *)

external wait4 : int -> float array = "suite_wait4"
external rusage : unit -> float array = "suite_rusage"
external nproc : unit -> int = "suite_nproc"

type result = {
  argv : string array;
  code : int;  (** exit status; minus the signal number when killed *)
  wall : float;  (** spawn to reap, seconds *)
  first_byte : float;  (** spawn to the first stdout byte (= [wall] when none) *)
  cpu : float;  (** user + system seconds, including reaped descendants *)
  rss_mb : float;  (** peak resident set of the child or any descendant it reaped *)
  stdout : string;
}

let run ?(stderr = Unix.stderr) argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid =
    try Unix.create_process argv.(0) argv Unix.stdin wr stderr
    with e ->
      Unix.close rd;
      Unix.close wr;
      raise e
  in
  Unix.close wr;
  let out = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let first = ref None in
  let rec drain () =
    match Unix.read rd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        if !first = None then first := Some (Unix.gettimeofday ());
        Buffer.add_subbytes out chunk 0 k;
        drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close rd;
  let ru = wait4 pid in
  let t1 = Unix.gettimeofday () in
  {
    argv;
    code = int_of_float ru.(0);
    wall = t1 -. t0;
    first_byte = (match !first with Some t -> t -. t0 | None -> t1 -. t0);
    cpu = ru.(1) +. ru.(2);
    rss_mb = ru.(3) /. 1024.;
    stdout = Buffer.contents out;
  }

let command_line argv = String.concat " " (Array.to_list argv)

(* --- order statistics ------------------------------------------------------ *)

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by the "exclusive" method of Python's
   statistics.quantiles(n=4), so spreads read the same here as in any
   external check of the benchmark. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* --- host record ----------------------------------------------------------- *)

let read_file_opt path = try Some (String.trim (Json.read_file path)) with Sys_error _ -> None
let loadavg () = Option.value ~default:"unknown" (read_file_opt "/proc/loadavg")

(* The checkout the benchmark runs in need not be a git repository, so the
   revision is read from .git when there is one and is "unknown" otherwise. *)
let git_revision () =
  match read_file_opt ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> Option.value ~default:"unknown" (read_file_opt (Filename.concat ".git" r))
      | _ -> head)

let host () =
  Json.Obj
    [
      ("nproc", Json.int (nproc ()));
      ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("git_revision", Json.Str (git_revision ()));
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_log path = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Every process the suite starts inherits this TMPDIR, so the scratch
   directories `jaaru fleet` makes stay under the output directory. *)
let set_tmpdir out =
  let dir = Filename.concat out "tmp" in
  let dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  mkdir_p dir;
  Unix.putenv "TMPDIR" dir

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
