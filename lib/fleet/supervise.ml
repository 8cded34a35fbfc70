(* Worker process lifecycle: spawn (fork + setsid + exec), group kill, reap,
   and retry backoff. *)

let backoff ~base ~cap ~attempt =
  (* attempt 1 is the first retry *)
  let d = base *. (2. ** float_of_int (max 0 (attempt - 1))) in
  Float.min cap d

(* --- process control ------------------------------------------------------ *)

type proc = {
  pid : int;
  to_child : Unix.file_descr;  (* coordinator writes Assign/Preempt here *)
  from_child : Unix.file_descr;  (* worker's Heartbeat/Result frames *)
}

exception Spawn_failed of string

let spawn ~argv =
  let prog = argv.(0) in
  if not (Sys.file_exists prog) then raise (Spawn_failed (prog ^ ": no such executable"));
  (* Close-on-exec, so no worker inherits another's pipes: the child's two
     [dup2]s below are the only descriptors that survive its [exec]. *)
  let down_r, down_w = Unix.pipe ~cloexec:true () in
  let up_r, up_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | exception Unix.Unix_error (e, _, _) ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ down_r; down_w; up_r; up_w ];
      raise (Spawn_failed (Unix.error_message e))
  | 0 ->
      (* Child. Its own session → its own process group, so the coordinator
         can kill the worker and any grandchildren with one negative-pid
         signal, and a coordinator SIGINT from the terminal does not reach
         workers except through the supervisor. *)
      (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
      Unix.dup2 ~cloexec:false down_r Unix.stdin;
      Unix.dup2 ~cloexec:false up_w Unix.stdout;
      (try Unix.execv prog argv with _ -> ());
      (* exec failed: die without running the parent's at_exit handlers *)
      exit 127
  | pid ->
      Unix.close down_r;
      Unix.close up_w;
      { pid; to_child = down_w; from_child = up_r }

let kill_group ?(signal = Sys.sigkill) p =
  (* The worker called setsid, so its pgid is its pid; the negative pid form
     reaches any helper processes it spawned too. Fall back to the single pid
     if the group is already gone. *)
  (try Unix.kill (-p.pid) signal
   with Unix.Unix_error _ -> ( try Unix.kill p.pid signal with Unix.Unix_error _ -> ()));
  ()

type exit_status = Exited of int | Signaled of int | Running

(* [Unix] numbers signals its own way (SIGKILL is -7); a status carries the
   system's number, which POSIX fixes for the signals a worker dies of. *)
let signaled s =
  let posix =
    Sys.
      [
        (sighup, 1); (sigint, 2); (sigquit, 3); (sigill, 4); (sigabrt, 6); (sigfpe, 8);
        (sigkill, 9); (sigsegv, 11); (sigpipe, 13); (sigalrm, 14); (sigterm, 15);
      ]
  in
  Signaled (Option.value (List.assoc_opt s posix) ~default:s)

let reap p =
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> Running
  | _, Unix.WEXITED c -> Exited c
  | _, Unix.WSIGNALED s -> signaled s
  | _, Unix.WSTOPPED _ -> Running
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Exited 0

let wait_reap ?(grace = 2.0) p =
  let deadline = Unix.gettimeofday () +. grace in
  let rec go () =
    match reap p with
    | (Exited _ | Signaled _) as st -> st
    | Running ->
        if Unix.gettimeofday () >= deadline then begin
          kill_group p;
          match Unix.waitpid [] p.pid with
          | _, Unix.WEXITED c -> Exited c
          | _, Unix.WSIGNALED s -> signaled s
          | _, Unix.WSTOPPED _ -> signaled Sys.sigkill
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Exited 0
        end
        else begin
          Unix.sleepf 0.01;
          go ()
        end
  in
  go ()
