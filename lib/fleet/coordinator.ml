(* The fleet coordinator: hands the choice tree to supervised worker
   processes as shard checkpoints, splits what they return across the
   fleet, and merges the shard reports deterministically. It never runs the
   program under test itself. See coordinator.mli for the contract and
   DESIGN.md §13 for the architecture. *)

module Ck = Jaaru.Checkpoint
module Ex = Jaaru.Explorer
module Ch = Jaaru.Choice

type config = {
  workers : int;
  heartbeat_timeout : float;
  quarantine_after : int;
  spawn_attempts : int;
  worker_argv : string array option;
  log : string -> unit;
}

let default ~scratch:_ =
  {
    workers = 2;
    heartbeat_timeout = 2.0;
    quarantine_after = 3;
    spawn_attempts = 3;
    worker_argv = None;
    log = ignore;
  }

(* Fixed tuning. *)
let shards_per_worker = 4 (* shatter granularity target *)
let steal_after = 1.0 (* busy seconds before a preempt can steal *)
let backoff_base = 0.05
let backoff_cap = 2.0

type fleet_stats = {
  shards : int;
  workers_configured : int;
  workers_effective : int;
  spawns : int;
  spawn_failures : int;
  assignments : int;
  retries : int;
  steals : int;
  quarantined : (int * string) list;  (* shard id, last failure — sorted by id *)
}

let pp_fleet ppf f =
  Format.fprintf ppf
    "fleet: shards %d, workers %d/%d, spawns %d (%d failed), assignments %d, retries %d, steals %d, quarantined %d"
    f.shards f.workers_effective f.workers_configured f.spawns f.spawn_failures f.assignments
    f.retries f.steals (List.length f.quarantined);
  List.iter
    (fun (sid, reason) ->
      Format.fprintf ppf "@\n  quarantined shard %d: %s" sid reason)
    f.quarantined

type result = {
  outcome : Ex.outcome;
  fleet : fleet_stats;
  remaining : string list;
  interrupted : bool;
}

(* --- shards --------------------------------------------------------------- *)

type shard_status = Pending | Assigned of int | Done | Quarantined of string

type shard = {
  sid : int;
  prefix : string;  (* encoded; the subtree the shard covers *)
  mutable status : shard_status;
  mutable attempts : int;
  mutable failures : int;  (* toward quarantine *)
  mutable not_before : float;  (* retry backoff gate *)
}

(* Shatter a frontier of encoded prefixes into at least [target] pieces.
   Splittable prefixes are repeatedly halved via {!Ch.split_prefix};
   prefixes with no open choice are atomic. The output order is a pure
   function of the input. Every frontier here was produced by an
   exploration and passed {!Ck.of_string}, so it decodes. *)
let shatter frontier target =
  let q = Queue.create () in
  List.iter (fun s -> Queue.push (Option.get (Ch.decode_prefix s)) q) frontier;
  let atomic = ref [] in
  let total () = Queue.length q + List.length !atomic in
  let rec go () =
    if total () < target && not (Queue.is_empty q) then begin
      let p = Queue.pop q in
      (match Ch.split_prefix p with
      | Some (kept, donated) ->
          Queue.push kept q;
          Queue.push donated q
      | None -> atomic := p :: !atomic);
      go ()
    end
  in
  go ();
  List.map Ch.encode_prefix (List.of_seq (Queue.to_seq q) @ List.rev !atomic)

(* --- worker slots --------------------------------------------------------- *)

type slot = {
  wid : int;
  mutable proc : Supervise.proc option;
  mutable reader : Transport.reader option;
  mutable ready : bool;
  mutable busy : shard option;  (* the assigned shard *)
  mutable busy_since : float;
  mutable preempted : bool;
  mutable last_beat : float;
  mutable spawns : int;
  mutable disabled : bool;
}

(* --- the run -------------------------------------------------------------- *)

let run ~fleet ~config ~scenario =
  let log fmt = Printf.ksprintf fleet.log fmt in
  (* The workload string must be whatever {!Ex.run} fingerprints with, or the
     workers would reject their own shards. *)
  let real_fp = Ck.fingerprint ~workload:scenario.Ex.name config in

  (* counters *)
  let spawns = ref 0
  and spawn_failures = ref 0
  and assignments = ref 0
  and retries = ref 0
  and steals = ref 0 in

  (* Every shard, in id order: the root first, then the remainders returned
     by preempted workers, appended as fresh shards. *)
  let shards = ref [] in
  let add_shards prefixes =
    let n = List.length !shards in
    shards :=
      !shards
      @ List.mapi
          (fun i prefix ->
            { sid = n + i; prefix; status = Pending; attempts = 0; failures = 0; not_before = 0. })
          prefixes
  in
  let root = Ch.encode_prefix Ch.root in
  add_shards [ root ];
  (* Outcomes of finished shards; a shard is merged only from a complete
     result, so it is counted exactly once however many attempts failed. *)
  let results = ref [] in

  (* A fresh piece of work: the shard's subtree, with nothing explored yet
     (so merging never double-counts). *)
  let unexplored prefix =
    Ex.to_checkpoint ~config scenario { Ex.empty with Ex.frontier = [ prefix ] }
  in

  let slots =
    Array.init (max 1 fleet.workers) (fun wid ->
        {
          wid;
          proc = None;
          reader = None;
          ready = false;
          busy = None;
          busy_since = 0.;
          preempted = false;
          last_beat = 0.;
          spawns = 0;
          disabled = fleet.worker_argv = None;
        })
  in

  let pending_eligible now =
    List.filter (fun s -> s.status = Pending && s.not_before <= now) !shards
  in
  let unfinished () = List.filter (fun s -> s.status <> Done) !shards in
  let finished () =
    List.for_all (fun s -> match s.status with Done | Quarantined _ -> true | _ -> false) !shards
  in

  (* A stolen remainder becomes fresh shards so every worker can share it. *)
  let steal_split frontier =
    add_shards (shatter frontier (max 1 fleet.workers * shards_per_worker))
  in

  let requeue ~why sh now =
    incr retries;
    sh.failures <- sh.failures + 1;
    if sh.failures >= fleet.quarantine_after then begin
      sh.status <- Quarantined why;
      log "shard %d quarantined after %d failures: %s" sh.sid sh.failures why
    end
    else begin
      let delay =
        Supervise.backoff ~base:backoff_base ~cap:backoff_cap ~attempt:sh.attempts
      in
      sh.status <- Pending;
      sh.not_before <- now +. delay;
      log "shard %d requeued (%s), retry in %.2fs" sh.sid why delay
    end
  in

  (* The one place an assignment ends, however it ends. The slot is free
     again, and the assignment's preempt ends with it. Given a reason, the
     shard is requeued; without one it was merged, or the run is winding
     down and leaves it in [remaining]. *)
  let settle ?why w now =
    (match (w.busy, why) with
    | Some sh, Some why when sh.status <> Done -> requeue ~why sh now
    | _ -> ());
    w.busy <- None;
    w.preempted <- false
  in

  let release_slot w =
    (match w.reader with Some r -> Transport.close_reader r | None -> ());
    (match w.proc with
    | Some p ->
        (try Unix.close p.Supervise.to_child with Unix.Unix_error _ -> ());
        ignore (Supervise.wait_reap ~grace:0. p)
    | None -> ());
    w.proc <- None;
    w.reader <- None;
    w.ready <- false
  in

  (* A worker died (or was declared dead): requeue its shard, if any, and
     free the slot for a respawn. *)
  let worker_down ~why w now =
    settle ~why w now;
    release_slot w
  in

  let kill_worker ~why w now =
    (match w.proc with
    | Some p ->
        Supervise.kill_group p;
        ignore (Supervise.wait_reap ~grace:0.5 p)
    | None -> ());
    worker_down ~why w now
  in

  let maybe_spawn now =
    match fleet.worker_argv with
    | None -> ()
    | Some argv ->
        Array.iter
          (fun w ->
            if w.proc = None && not w.disabled && unfinished () <> [] then begin
              if w.spawns >= fleet.spawn_attempts then begin
                w.disabled <- true;
                log "worker %d disabled after %d failed spawns" w.wid w.spawns
              end
              else begin
                w.spawns <- w.spawns + 1;
                incr spawns;
                match Supervise.spawn ~argv with
                | p ->
                    w.proc <- Some p;
                    w.reader <- Some (Transport.reader p.Supervise.from_child);
                    w.ready <- false;
                    w.last_beat <- now
                | exception Supervise.Spawn_failed msg ->
                    incr spawn_failures;
                    log "worker %d spawn failed: %s" w.wid msg
              end
            end)
          slots
  in

  let handle_result w sh payload now =
    match Ck.of_string payload with
    | exception Ck.Rejected msg ->
        log "worker %d returned a corrupt result for shard %d: %s" w.wid sh.sid msg;
        settle ~why:"corrupt result" w now
    | cp when cp.Ck.fingerprint <> real_fp ->
        log "worker %d returned a foreign result for shard %d" w.wid sh.sid;
        settle ~why:"fingerprint mismatch in result" w now
    | cp ->
        sh.status <- Done;
        let o = Ex.of_checkpoint cp in
        results := o :: !results;
        if o.Ex.frontier <> [] then begin
          (* A preempted worker returned the explored part plus the
             remainder; the remainder becomes new shards. *)
          incr steals;
          log "shard %d returned %d remainder prefixes (steal)" sh.sid
            (List.length o.Ex.frontier);
          steal_split o.Ex.frontier
        end;
        settle w now
  in

  let drain_worker w now =
    match w.reader with
    | None -> ()
    | Some r ->
        let msgs = Transport.drain r in
        (* A worker answers only for the shard it holds; anything else is a
           protocol error, handled like a dead worker. *)
        let answer shard k =
          match w.busy with
          | Some sh when sh.sid = shard -> k sh
          | _ ->
              log "worker %d answered for shard %d, which it does not hold" w.wid shard;
              kill_worker ~why:"protocol error" w now
        in
        List.iter
          (fun msg ->
            match msg with
            | Transport.Heartbeat _ ->
                w.last_beat <- now;
                if not w.ready then begin
                  w.ready <- true;
                  (* The handshake proves spawning works: the attempt
                     budget guards consecutive spawn failures only, not a
                     long run's many legitimate respawns. *)
                  w.spawns <- 0
                end
            | Transport.Result { shard; payload } ->
                answer shard (fun sh -> handle_result w sh payload now)
            | Transport.Refused { shard; reason } ->
                answer shard (fun _ ->
                    log "worker %d refused shard %d: %s" w.wid shard reason;
                    (* The shard is resent, freshly encoded, on its next
                       assignment. *)
                    settle ~why:("refused: " ^ reason) w now)
            | Transport.Assign _ | Transport.Preempt -> ())
          msgs
  in

  let assign w sh now =
    match w.proc with
    | None -> ()
    | Some p ->
        sh.attempts <- sh.attempts + 1;
        incr assignments;
        let payload = Ck.to_string (unexplored sh.prefix) in
        let assignment = Transport.Assign { shard = sh.sid; attempt = sh.attempts; payload } in
        (* The root goes out with a preempt right behind it, in the same
           write, so the worker reads both at once and answers after its
           first replay; [handle_result] shatters the remainder across the
           fleet. *)
        let probe = sh.prefix = root in
        match
          Transport.write_all p.Supervise.to_child
            (if probe then [ assignment; Transport.Preempt ] else [ assignment ])
        with
        | () ->
            sh.status <- Assigned w.wid;
            w.busy <- Some sh;
            w.busy_since <- now;
            w.preempted <- probe
        | exception Transport.Closed _ -> kill_worker ~why:"assign failed (pipe closed)" w now
  in

  let preempt w =
    match w.proc with
    | None -> ()
    | Some p -> (
        match Transport.write p.Supervise.to_child Transport.Preempt with
        | () -> w.preempted <- true
        | exception Transport.Closed _ -> ())
  in

  (* One supervision tick: wait up to 20 ms for frames, act on them, and
     retire the workers that died (EOF on the pipe, or a reaped exit).
     Returns the time the frames were read at. *)
  let step () =
    let fds =
      Array.to_list slots
      |> List.filter_map (fun w ->
             match w.reader with
             | Some r when not (Transport.at_eof r) -> Some (Transport.reader_fd r)
             | _ -> None)
    in
    (if fds = [] then Unix.sleepf 0.02
     else
       try ignore (Unix.select fds [] [] 0.02)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let now = Unix.gettimeofday () in
    Array.iter (fun w -> drain_worker w now) slots;
    Array.iter
      (fun w ->
        match w.proc with
        | None -> ()
        | Some p -> (
            let eof = match w.reader with Some r -> Transport.at_eof r | None -> true in
            if eof then begin
              let why =
                match Supervise.wait_reap ~grace:0.5 p with
                | Supervise.Exited 0 -> "worker exited"
                | Supervise.Exited c -> Printf.sprintf "worker exited with code %d" c
                | Supervise.Signaled s -> Printf.sprintf "worker killed by signal %d" s
                | Supervise.Running -> "worker pipe closed"
              in
              worker_down ~why w now
            end
            else
              match Supervise.reap p with
              | Supervise.Running -> ()
              | Supervise.Exited c ->
                  worker_down ~why:(Printf.sprintf "worker exited with code %d" c) w now
              | Supervise.Signaled s ->
                  worker_down ~why:(Printf.sprintf "worker killed by signal %d" s) w now))
      slots;
    now
  in

  let wind_down () =
    (* Collect what the fleet can still deliver: preempt every busy worker,
       give them a grace period to return partial results, then kill the
       stragglers. A second interrupt skips the grace. *)
    Array.iter (fun w -> if Option.is_some w.busy then preempt w) slots;
    let deadline = Unix.gettimeofday () +. 5.0 in
    while
      Array.exists (fun w -> Option.is_some w.busy) slots
      && Unix.gettimeofday () < deadline
      && Ex.interrupts_requested () <= 1
    do
      ignore (step ())
    done;
    Array.iter
      (fun w ->
        (match w.proc with
        | Some p ->
            Supervise.kill_group p;
            ignore (Supervise.wait_reap ~grace:0.5 p)
        | None -> ());
        settle w (Unix.gettimeofday ());
        release_slot w)
      slots
  in

  (* Runs the fleet until every shard is settled, an interrupt winds it
     down (returns [true]) or no worker is left to run on. The unfinished
     shards stay in [remaining], for [jaaru check --resume] to finish. *)
  let rec loop () =
    if finished () then false
    else if Ex.interrupts_requested () > 0 then begin
      wind_down ();
      true
    end
    else if Array.for_all (fun w -> w.disabled) slots then false
    else begin
      let now = Unix.gettimeofday () in
      maybe_spawn now;
      let now = step () in
      (* heartbeat timeouts: a hung worker, or one whose replay has not
         returned to the explorer (a worker beats on replay progress) *)
      Array.iter
        (fun w ->
          if w.proc <> None && now -. w.last_beat > fleet.heartbeat_timeout then begin
            log "worker %d heartbeat timeout (%.1fs), killing" w.wid (now -. w.last_beat);
            kill_worker ~why:"heartbeat timeout" w now
          end)
        slots;
      (* assignment: lowest shard id to lowest ready idle worker *)
      let idle w = w.proc <> None && w.ready && w.busy = None in
      let rec assign_loop () =
        match (Array.find_opt idle slots, pending_eligible now) with
        | Some w, sh :: _ ->
            assign w sh now;
            assign_loop ()
        | _ -> ()
      in
      assign_loop ();
      (* work stealing: idle capacity, nothing assignable, and a worker
         stuck in one shard for a while — preempt one per tick; the
         remainder it returns is shattered into fresh shards *)
      (if Array.exists idle slots && not (List.exists (fun s -> s.status = Pending) !shards) then
         match
           Array.to_list slots
           |> List.filter (fun w ->
                  w.busy <> None && not w.preempted && now -. w.busy_since >= steal_after)
           |> List.sort (fun a b -> Float.compare a.busy_since b.busy_since)
         with
         | w :: _ -> preempt w
         | [] -> ());
      loop ()
    end
  in

  if fleet.worker_argv <> None then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  log "fleet: the root shard across %d workers" fleet.workers;
  let interrupted = loop () in
  (* shut the workers down cleanly: closing their stdin makes them quit *)
  Array.iter release_slot slots;

  let quarantined =
    !shards
    |> List.filter_map (fun s ->
           match s.status with Quarantined why -> Some (s.sid, why) | _ -> None)
  in
  let remaining = List.map (fun s -> s.prefix) (unfinished ()) in
  let completed = remaining = [] && not interrupted in
  let outcome = Ex.merge_outcomes ~config ~completed ~interrupted !results in
  let effective = List.length (List.filter (fun w -> not w.disabled) (Array.to_list slots)) in
  {
    outcome = { outcome with Ex.frontier = remaining };
    fleet =
      {
        shards = List.length !shards;
        workers_configured = fleet.workers;
        workers_effective = effective;
        spawns = !spawns;
        spawn_failures = !spawn_failures;
        assignments = !assignments;
        retries = !retries;
        steals = !steals;
        quarantined;
      };
    remaining;
    interrupted;
  }
