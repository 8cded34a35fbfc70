(* Worker process lifecycle: spawn (fork + setsid + exec), group kill, reap,
   retry backoff, and the self-inflicted fault plans of [--fleet-chaos]. *)

type chaos = { kill : float; hang : float; torn : float }

let no_chaos = { kill = 0.; hang = 0.; torn = 0. }

let parse_chaos s =
  let prob what v =
    match float_of_string_opt v with
    | Some p when p >= 0. && p <= 1. -> p
    | _ -> invalid_arg (Printf.sprintf "--fleet-chaos: %s wants a probability in [0,1], got %S" what v)
  in
  let parse_field acc field =
    match String.index_opt field ':' with
    | None -> invalid_arg (Printf.sprintf "--fleet-chaos: expected mode:prob, got %S" field)
    | Some i -> (
        let mode = String.sub field 0 i in
        let v = String.sub field (i + 1) (String.length field - i - 1) in
        match mode with
        | "kill" -> { acc with kill = prob "kill" v }
        | "hang" -> { acc with hang = prob "hang" v }
        | "torn" -> { acc with torn = prob "torn" v }
        | m -> invalid_arg (Printf.sprintf "--fleet-chaos: unknown mode %S (kill|hang|torn)" m))
  in
  match String.trim s with
  | "" -> no_chaos
  | s -> List.fold_left parse_field no_chaos (String.split_on_char ',' s)

(* The faults planned for one shard assignment. Decided coordinator-side from
   one seeded PRNG so a chaos run's fault schedule — and therefore its retry
   history — is reproducible. [kill_after] is seconds until the coordinator
   SIGKILLs the worker's process group; [hang] drops the worker's messages
   until its heartbeat timeout fires; [torn] truncates the shard checkpoint
   the coordinator sends. *)
type plan = { kill_after : float option; hang : bool; torn : bool }

let injects p = p.kill_after <> None || p.hang || p.torn

let plan rng c =
  (* Fixed draw order keeps the fault schedule a pure function of the seed
     and the assignment sequence, independent of which probabilities are
     zero. *)
  let kill_draw = Random.State.float rng 1.0 in
  let hang_draw = Random.State.float rng 1.0 in
  let torn_draw = Random.State.float rng 1.0 in
  let delay_draw = Random.State.float rng 1.0 in
  {
    kill_after = (if kill_draw < c.kill then Some (0.02 +. (delay_draw *. 0.2)) else None);
    hang = hang_draw < c.hang;
    torn = torn_draw < c.torn;
  }

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
  let down_r, down_w = Unix.pipe ~cloexec:false () in
  let up_r, up_w = Unix.pipe ~cloexec:false () in
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
      Unix.dup2 down_r Unix.stdin;
      Unix.dup2 up_w Unix.stdout;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ down_r; down_w; up_r; up_w ];
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

let reap p =
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> Running
  | _, Unix.WEXITED c -> Exited c
  | _, Unix.WSIGNALED s -> Signaled s
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
          | _, Unix.WSIGNALED s -> Signaled s
          | _, Unix.WSTOPPED _ -> Signaled Sys.sigkill
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Exited 0
        end
        else begin
          Unix.sleepf 0.01;
          go ()
        end
  in
  go ()
