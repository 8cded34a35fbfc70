(* Fleet mode: the transport framing, retry backoff, prefix shattering,
   the worker's pipes and preempts, and — the load-bearing property — that
   a coordinator run on spawned worker processes (this binary re-executed
   as a fake worker, which can also kill itself, hang or refuse its shard)
   reports byte-identically to a plain single-process exploration, and that
   a coordinator with no worker explores nothing and leaves the root to
   resume. scripts/fleet_smoke.sh signals the real CLI worker the same way. *)
open Jaaru

let report_text (o : Explorer.outcome) = Format.asprintf "%a" Explorer.pp_report o

let deep_case () =
  let c = List.hd (Pmdk.Workloads.fig12_cases ()) in
  (c.Case.scenario, { c.Case.config with Config.max_failures = 2; stop_at_first_bug = false })

(* --- transport ------------------------------------------------------------- *)

module T = Fleet.Transport

let all_msgs =
  [
    T.Heartbeat { shard = -1; beats = 1 };
    T.Heartbeat { shard = 42; beats = 1_000_000 };
    T.Assign { shard = 0; attempt = 3; payload = "jaaru-checkpoint-v2\n" };
    T.Preempt;
    T.Result { shard = 7; payload = String.init 4096 (fun i -> Char.chr (i land 0xff)) };
    T.Refused { shard = 9; reason = "checkpoint payload fails its checksum" };
  ]

(* Everything [reader] yields until its stream ends. *)
let drain_to_eof reader =
  let rec go acc =
    if T.at_eof reader then List.concat (List.rev acc)
    else begin
      ignore (Unix.select [ T.reader_fd reader ] [] [] 1.0);
      go (T.drain reader :: acc)
    end
  in
  go []

let test_transport_roundtrip () =
  let r, w = Unix.pipe () in
  let reader = T.reader r in
  Fun.protect
    ~finally:(fun () -> T.close_reader reader)
    (fun () ->
      List.iter (fun m -> T.write w m) all_msgs;
      (* Closing the write end surfaces as a clean EOF after the frames. *)
      Unix.close w;
      Alcotest.(check bool) "messages round-trip in order" true (drain_to_eof reader = all_msgs);
      Alcotest.(check bool) "eof latched" true (T.at_eof reader);
      Alcotest.(check int) "nothing after eof" 0 (List.length (T.drain reader)))

(* The frames of [msgs] as one byte string, and the offset each frame
   starts at. Written through a file: a 64 KiB frame does not fit a pipe. *)
let frames msgs =
  let path = Filename.temp_file "jaaru_frames" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let starts =
        List.map
          (fun m ->
            let at = Unix.lseek fd 0 Unix.SEEK_CUR in
            T.write fd m;
            at)
          msgs
      in
      Unix.close fd;
      (In_channel.with_open_bin path In_channel.input_all, starts))

(* Delivers [bytes] through a pipe in chunks of random size (1 byte up to
   the whole rest), draining after every write, and closes the pipe when
   [close]. Returns what the reader yielded and whether it latched EOF. *)
let deliver ~chunks ~close bytes =
  let r, w = Unix.pipe () in
  Unix.set_nonblock w;
  let reader = T.reader r in
  Fun.protect
    ~finally:(fun () ->
      T.close_reader reader;
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let got = ref [] in
      let pull () = got := !got @ T.drain reader in
      let rec push off =
        let rest = String.length bytes - off in
        if rest > 0 then begin
          let bound =
            match Random.State.int chunks 4 with 0 | 1 -> min rest 16 | 2 -> min rest 4096 | _ -> rest
          in
          match Unix.single_write_substring w bytes off (1 + Random.State.int chunks bound) with
          | n ->
              pull ();
              push (off + n)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              (* A latched reader reads no more: stop once the pipe is full. *)
              pull ();
              if not (T.at_eof reader) then push off
        end
      in
      push 0;
      if close then begin
        Unix.close w;
        got := !got @ drain_to_eof reader
      end
      else pull ();
      (!got, T.at_eof reader))

let gen_msg =
  QCheck.Gen.(
    let payload = string_size (frequency [ (3, int_bound 64); (1, int_bound 65536) ]) in
    oneof
      [
        map2 (fun shard beats -> T.Heartbeat { shard; beats }) (int_range (-1) 1000) nat;
        map3 (fun shard attempt payload -> T.Assign { shard; attempt; payload }) nat nat payload;
        return T.Preempt;
        map2 (fun shard payload -> T.Result { shard; payload }) nat payload;
        map2 (fun shard reason -> T.Refused { shard; reason }) nat payload;
      ])

let print_msg = function
  | T.Heartbeat { shard; beats } -> Printf.sprintf "Heartbeat(%d,%d)" shard beats
  | T.Assign { shard; attempt; payload } ->
      Printf.sprintf "Assign(%d,%d,%d bytes)" shard attempt (String.length payload)
  | T.Preempt -> "Preempt"
  | T.Result { shard; payload } -> Printf.sprintf "Result(%d,%d bytes)" shard (String.length payload)
  | T.Refused { shard; reason } ->
      Printf.sprintf "Refused(%d,%d bytes)" shard (String.length reason)

(* Any message list, in any chunking: the reader yields exactly the list;
   cut mid-frame it yields the complete prefix and EOF; with one byte of a
   frame body flipped it yields the frames before that one and then EOF. *)
let prop_reader_chunking =
  QCheck.Test.make ~name:"reader = frames, in any chunking" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(pair (list print_msg) int)
       QCheck.Gen.(pair (list_size (int_range 1 8) gen_msg) int))
    (fun (msgs, seed) ->
      let chunks = Random.State.make [| seed |] in
      let bytes, starts = frames msgs in
      let n = List.length msgs in
      let k = Random.State.int chunks n in
      let start = List.nth starts k in
      let stop = if k + 1 < n then List.nth starts (k + 1) else String.length bytes in
      let before = List.filteri (fun i _ -> i < k) msgs in
      let whole = deliver ~chunks ~close:true bytes in
      let cut =
        deliver ~chunks ~close:true
          (String.sub bytes 0 (start + 1 + Random.State.int chunks (stop - start - 1)))
      in
      let flipped =
        let b = Bytes.of_string bytes in
        let at = start + 8 + Random.State.int chunks (stop - start - 8) in
        Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 + Random.State.int chunks 255)));
        deliver ~chunks ~close:false (Bytes.to_string b)
      in
      if whole <> (msgs, true) then QCheck.Test.fail_report "whole stream";
      if cut <> (before, true) then QCheck.Test.fail_report "cut mid-frame";
      if flipped <> (before, true) then QCheck.Test.fail_report "flipped body byte";
      true)

let test_transport_reader_partial_frames () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close w with Unix.Unix_error _ -> ());
      ())
    (fun () ->
      let reader = Fleet.Transport.reader r in
      (* Serialize two frames into one byte string, then deliver it in
         awkward chunks: the reader must reassemble exactly two messages. *)
      let tmp_r, tmp_w = Unix.pipe () in
      List.iter (fun m -> Fleet.Transport.write tmp_w m)
        [ Fleet.Transport.Preempt; Fleet.Transport.Heartbeat { shard = 3; beats = 9 } ];
      Unix.close tmp_w;
      let buf = Bytes.create 65536 in
      let n = Unix.read tmp_r buf 0 (Bytes.length buf) in
      Unix.close tmp_r;
      let bytes = Bytes.sub_string buf 0 n in
      let cut = (String.length bytes / 2) + 1 in
      ignore (Unix.write_substring w bytes 0 cut);
      let msgs1 = Fleet.Transport.drain reader in
      ignore (Unix.write_substring w bytes cut (String.length bytes - cut));
      let msgs2 = Fleet.Transport.drain reader in
      Alcotest.(check int) "both frames arrive across the chunk boundary" 2
        (List.length msgs1 + List.length msgs2);
      Alcotest.(check bool) "no eof yet" false (Fleet.Transport.at_eof reader);
      Unix.close w;
      let _ = Fleet.Transport.drain reader in
      Alcotest.(check bool) "eof latches after peer close" true (Fleet.Transport.at_eof reader);
      Fleet.Transport.close_reader reader)

let test_transport_corrupt_frame () =
  let r, w = Unix.pipe () in
  let reader = Fleet.Transport.reader r in
  (* A frame whose checksum cannot match: plausible length, garbage body. *)
  let garbage = "\x00\x00\x00\x04\xde\xad\xbe\xefABCD" in
  ignore (Unix.write_substring w garbage 0 (String.length garbage));
  let msgs = Fleet.Transport.drain reader in
  Alcotest.(check int) "corrupt frame yields no message" 0 (List.length msgs);
  Alcotest.(check bool) "corrupt frame latches eof (dead worker)" true
    (Fleet.Transport.at_eof reader);
  Unix.close w;
  Fleet.Transport.close_reader reader

(* --- backoff ------------------------------------------------------------- *)

let test_backoff () =
  let b attempt = Fleet.Supervise.backoff ~base:0.1 ~cap:1.0 ~attempt in
  Alcotest.(check (float 1e-9)) "first retry at base" 0.1 (b 1);
  Alcotest.(check (float 1e-9)) "doubles" 0.2 (b 2);
  Alcotest.(check (float 1e-9)) "doubles again" 0.4 (b 3);
  Alcotest.(check (float 1e-9)) "caps" 1.0 (b 10)

(* --- Choice.split_prefix ---------------------------------------------------- *)

(* Real prefixes, from a capped run's checkpoint: splitting must terminate,
   both halves must round-trip through the codec, and the halves must differ
   from the parent (progress). The semantic property — that the two halves
   partition exactly the parent's subtree — is what the coordinator
   differential below certifies, by exploring them. *)
let test_split_prefix_invariants () =
  let scn, config = deep_case () in
  let path = Filename.temp_file "jaaru_split" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let config = { config with Config.max_executions = 16 } in
      let _ = Explorer.run ~config ~checkpoint:path scn in
      let cp = Checkpoint.load path in
      let prefixes = Checkpoint.frontier_prefixes cp in
      Alcotest.(check bool) "capped run left a frontier" true (prefixes <> []);
      let splits = ref 0 in
      let rec burn p depth =
        if depth > 10_000 then Alcotest.fail "split_prefix does not terminate";
        match Choice.split_prefix p with
        | None -> ()
        | Some (kept, donated) ->
            incr splits;
            let ek = Choice.encode_prefix kept and ed = Choice.encode_prefix donated in
            Alcotest.(check bool) "kept differs from parent" true
              (ek <> Choice.encode_prefix p);
            Alcotest.(check bool) "halves differ from each other" true (ek <> ed);
            (match (Choice.decode_prefix ek, Choice.decode_prefix ed) with
            | Some k2, Some d2 ->
                Alcotest.(check string) "kept round-trips" ek (Choice.encode_prefix k2);
                Alcotest.(check string) "donated round-trips" ed (Choice.encode_prefix d2)
            | _ -> Alcotest.fail "split halves must decode");
            burn kept (depth + 1);
            burn donated (depth + 1)
      in
      List.iter (fun p -> burn p 0) prefixes;
      Alcotest.(check bool) "at least one prefix was splittable" true (!splits > 0))

(* --- merge_outcomes ---------------------------------------------------------- *)

let test_merge_outcomes_differential () =
  let scn, config = deep_case () in
  let full = Explorer.run ~config scn in
  (* Explore a capped first half, then the frontier it returned, and merge
     the two partial outcomes. *)
  let o1 = Explorer.run ~config:{ config with Config.max_executions = 16 } scn in
  Alcotest.(check bool) "cap split the run" true (o1.Explorer.frontier <> []);
  (* The remainder resumes under the full config; reports must not
     double-count the first half, so it starts from nothing explored. *)
  let remainder = { Explorer.empty with Explorer.frontier = o1.Explorer.frontier } in
  let o2 = Explorer.run ~config ~resume:(Explorer.to_checkpoint ~config scn remainder) scn in
  let merged = Explorer.merge_outcomes ~config ~completed:true ~interrupted:false [ o1; o2 ] in
  Alcotest.(check string) "merge of disjoint halves = uninterrupted run" (report_text full)
    (report_text merged);
  Alcotest.(check bool) "merged run exhausted" true merged.Explorer.stats.Stats.exhausted

(* --- spawned workers ------------------------------------------------------- *)

(* A recovery that ends its process, runs out of memory or spins, on one
   path only: 40 lines are stored and flushed in turn, and only a crash at
   the first flush can leave line 0 unwritten, so the recovery meets it
   after 41 executions in DFS order. Recovery then calls [exit 3] (MODE
   [exit]), raises [Out_of_memory] (MODE [oom]), loops without a [Ctx] call
   (MODE [loop]) or returns (any other MODE). MODE [exit-first] is [exit]
   with one line stored, so the path lies among the first few executions.
   Every mode has the same name, so the checkpoints of the 40-line modes
   are interchangeable. *)
let probe_case mode =
  let base = Config.default.Config.region_base in
  let lines = if mode = "exit-first" then 1 else 40 in
  let pre ctx =
    for i = 0 to lines - 1 do
      Ctx.store64 ctx (base + (64 * i)) 1;
      Ctx.clflush ctx (base + (64 * i)) 8
    done
  in
  let post ctx =
    if Ctx.load64 ctx base = 0 then
      match mode with
      | "exit" | "exit-first" -> exit 3
      | "oom" -> raise Out_of_memory
      | "loop" -> while true do () done
      | _ -> ()
  in
  (Explorer.scenario ~name:"probe" ~pre ~post, { Config.default with Config.max_failures = 1 })

(* This test binary doubles as a fleet worker: re-executed as
   [test_fleet.exe fake-worker MODE], it serves shards of [deep_case]
   through {!Fleet.Worker.serve}, exploring each honestly and ticking at
   every replay, except that the first attempt at every even shard id
   faults in modes [kill] (SIGKILL to itself at its first replay), [hang]
   (its first replay sleeps without ticking) and [refuse] (answers
   [Error]), and in mode [foreign] every shard's first attempt answers with
   a result carrying a wrong fingerprint. In modes [exit], [exit-first],
   [oom] and [loop] it serves [probe_case]; any other mode is honest. *)
let fake_worker mode =
  let scn, config =
    match mode with
    | "exit" | "exit-first" | "oom" | "loop" -> probe_case mode
    | _ -> deep_case ()
  in
  let run ~tick ~shard ~attempt ~payload =
    let staged = attempt = 1 && shard mod 2 = 0 in
    if staged && mode = "refuse" then Error "staged refusal"
    else begin
      let cp = Checkpoint.of_string payload in
      Checkpoint.validate cp ~workload:scn.Explorer.name ~config;
      let fault () =
        if staged && mode = "kill" then Unix.kill (Unix.getpid ()) Sys.sigkill
        else if staged && mode = "hang" then Unix.sleepf 60.
      in
      let step f ctx =
        fault ();
        tick ();
        f ctx
      in
      let scn = { scn with Explorer.pre = step scn.Explorer.pre; post = step scn.Explorer.post } in
      Explorer.clear_interrupt ();
      let o = Explorer.run ~config ~resume:cp scn in
      let cp = Explorer.to_checkpoint ~config scn o in
      let cp =
        if mode = "foreign" && attempt = 1 then { cp with Checkpoint.fingerprint = "foreign" }
        else cp
      in
      Ok (Checkpoint.to_string cp)
    end
  in
  Fleet.Worker.serve ~on_preempt:Explorer.request_interrupt ~run ()

(* One fleet run on spawned fake workers in MODE, returned with its
   supervision log. Given [interrupt_at], the run is interrupted at the first
   log line that contains it. Otherwise a watchdog interrupts the run after
   30 s, so a wedged coordinator fails the test instead of hanging it. *)
let spawned_run ~mode ~workers ?(heartbeat_timeout = 2.0) ?interrupt_at (scn, config) =
  let log = ref [] in
  let fleet =
    {
      (Fleet.Coordinator.default ~scratch:"") with
      Fleet.Coordinator.workers;
      heartbeat_timeout;
      worker_argv = Some [| Sys.executable_name; "fake-worker"; mode |];
      log =
        (fun line ->
          log := line :: !log;
          match interrupt_at with
          | Some needle when Test_env.contains ~needle line -> Explorer.request_interrupt ()
          | _ -> ());
    }
  in
  let over = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let deadline = Unix.gettimeofday () +. 30. in
        while (not (Atomic.get over)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.05
        done;
        if not (Atomic.get over) then Explorer.request_interrupt ())
      ()
  in
  Explorer.clear_interrupt ();
  let r =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set over true;
        Thread.join watchdog;
        Explorer.clear_interrupt ())
      (fun () -> Fleet.Coordinator.run ~fleet ~config ~scenario:scn)
  in
  if interrupt_at = None then
    Alcotest.(check bool) "not interrupted by the watchdog" false r.Fleet.Coordinator.interrupted;
  (r, List.rev !log)

(* A [deep_case] fleet run on spawned fake workers, which must complete to
   the single-process report. *)
let spawned_case ~mode ~workers ?heartbeat_timeout () =
  let scn, config = deep_case () in
  let r, log = spawned_run ~mode ~workers ?heartbeat_timeout (scn, config) in
  Alcotest.(check (list string)) "nothing remaining" [] r.Fleet.Coordinator.remaining;
  Alcotest.(check string) "spawned fleet = single process"
    (report_text (Explorer.run ~config scn))
    (report_text r.Fleet.Coordinator.outcome);
  (r.Fleet.Coordinator.fleet, log)

(* --- the coordinator ------------------------------------------------------- *)

let test_coordinator_spawned_differential () =
  List.iter
    (fun workers ->
      let f, _ = spawned_case ~mode:"honest" ~workers () in
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "workers=%d: no quarantine" workers)
        [] f.Fleet.Coordinator.quarantined)
    [ 1; 2; 4 ]

(* A worker argv that cannot exist disables every slot. The coordinator runs
   no program code, so nothing is explored: the root remains, and resuming
   that outcome in one process completes the run byte-identically. *)
let test_coordinator_spawn_failure () =
  let scn, config = deep_case () in
  let fleet =
    {
      (Fleet.Coordinator.default ~scratch:"") with
      Fleet.Coordinator.workers = 2;
      spawn_attempts = 2;
      worker_argv = Some [| "/nonexistent/jaaru-worker-binary" |];
    }
  in
  let r = Fleet.Coordinator.run ~fleet ~config ~scenario:scn in
  let f = r.Fleet.Coordinator.fleet in
  Alcotest.(check bool) "spawn failures were counted" true (f.Fleet.Coordinator.spawn_failures > 0);
  Alcotest.(check int) "no effective workers" 0 f.Fleet.Coordinator.workers_effective;
  Alcotest.(check (list string)) "the root remains" [ Choice.encode_prefix Choice.root ]
    r.Fleet.Coordinator.remaining;
  Alcotest.(check bool) "not interrupted" false r.Fleet.Coordinator.interrupted;
  let o = r.Fleet.Coordinator.outcome in
  Alcotest.(check int) "nothing explored" 0 o.Explorer.stats.Stats.executions;
  Alcotest.(check string) "resumed = single process"
    (report_text (Explorer.run ~config scn))
    (report_text (Explorer.run ~config ~resume:(Explorer.to_checkpoint ~config scn o) scn))

(* An interrupt mid-fleet — here as soon as the root's remainder is
   shattered, so some shards are out and others pending — must leave a
   remainder that, resumed as a plain checkpoint, completes to the
   uninterrupted report: fleet and check checkpoints are interchangeable. *)
let test_coordinator_interrupt_remainder () =
  let scn, config = deep_case () in
  let r, _ = spawned_run ~mode:"honest" ~workers:2 ~interrupt_at:"(steal)" (scn, config) in
  let o = r.Fleet.Coordinator.outcome in
  Alcotest.(check bool) "interrupted" true r.Fleet.Coordinator.interrupted;
  Alcotest.(check bool) "interrupted fleet reports interrupted stats" true
    o.Explorer.stats.Stats.interrupted;
  Alcotest.(check bool) "a remainder is left" true (r.Fleet.Coordinator.remaining <> []);
  Alcotest.(check (list string)) "the outcome carries the remainder"
    r.Fleet.Coordinator.remaining o.Explorer.frontier;
  Alcotest.(check string) "interrupted fleet + resume = uninterrupted"
    (report_text (Explorer.run ~config scn))
    (report_text (Explorer.run ~config ~resume:(Explorer.to_checkpoint ~config scn o) scn))

(* --- one worker, driven by hand ------------------------------------------- *)

(* The first frame from [reader] that [f] accepts, within 30 s. *)
let await_frame reader f =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    if T.at_eof reader then Alcotest.fail "the worker closed its pipe"
    else if Unix.gettimeofday () > deadline then Alcotest.fail "no answer from the worker"
    else begin
      ignore (Unix.select [ T.reader_fd reader ] [] [] 0.1);
      match List.find_map f (T.drain reader) with Some x -> x | None -> go ()
    end
  in
  go ()

(* [n] fake workers in MODE with readers on their stdout, shut down (stdin
   closed, then reaped) when [k] returns. *)
let with_workers n mode k =
  let procs =
    List.init n (fun _ -> Fleet.Supervise.spawn ~argv:[| Sys.executable_name; "fake-worker"; mode |])
  in
  let readers = List.map (fun p -> T.reader p.Fleet.Supervise.from_child) procs in
  Fun.protect
    ~finally:(fun () ->
      List.iter2
        (fun p r ->
          Unix.close p.Fleet.Supervise.to_child;
          ignore (Fleet.Supervise.wait_reap ~grace:5. p);
          T.close_reader r)
        procs readers)
    (fun () -> k (List.combine procs readers))

(* The preempt the coordinator sends right behind the root's assignment,
   in one write, is in the pipe before the worker first reads it, so both
   arrive in one read: the worker must apply it to that shard, after its
   [run] has cleared stale interrupts, and answer with a remainder. *)
let test_preempt_with_assign () =
  let scn, config = deep_case () in
  let full = Explorer.run ~config scn in
  with_workers 1 "honest" (function
    | [ (p, reader) ] ->
        let root = { Explorer.empty with Explorer.frontier = [ Choice.encode_prefix Choice.root ] } in
        let payload = Checkpoint.to_string (Explorer.to_checkpoint ~config scn root) in
        T.write_all p.Fleet.Supervise.to_child [ T.Assign { shard = 0; attempt = 1; payload }; T.Preempt ];
        let o =
          await_frame reader (function
            | T.Result { payload; _ } -> Some (Explorer.of_checkpoint (Checkpoint.of_string payload))
            | _ -> None)
        in
        Alcotest.(check bool) "the answer carries a remainder" true (o.Explorer.frontier <> []);
        Alcotest.(check bool)
          (Printf.sprintf "%d of %d executions explored" o.Explorer.stats.Stats.executions
             full.Explorer.stats.Stats.executions)
          true
          (o.Explorer.stats.Stats.executions < full.Explorer.stats.Stats.executions)
    | _ -> assert false)

(* The pipe inodes process [pid] holds, as (descriptor, inode) pairs. *)
let pipe_fds pid =
  let dir = Printf.sprintf "/proc/%d/fd" pid in
  Array.to_list (Sys.readdir dir)
  |> List.filter_map (fun fd ->
         match Unix.readlink (Filename.concat dir fd) with
         | link when String.starts_with ~prefix:"pipe:[" link ->
             Some (int_of_string fd, int_of_string (String.sub link 6 (String.length link - 7)))
         | _ | (exception Unix.Unix_error _) -> None)

(* Each worker holds exactly its own two pipe ends, as stdin and stdout,
   and none of the pipes of the workers spawned before it. *)
let test_pipes_not_inherited () =
  with_workers 3 "honest" (fun workers ->
      let ino fd = (Unix.fstat fd).Unix.st_ino in
      let fleet_pipes =
        List.concat_map
          (fun (p, _) -> Fleet.Supervise.[ ino p.to_child; ino p.from_child ])
          workers
      in
      List.iteri
        (fun i (p, reader) ->
          (* Its first beat is sent after [exec]. *)
          await_frame reader (function T.Heartbeat _ -> Some () | _ -> None);
          let held = List.filter (fun (_, n) -> List.mem n fleet_pipes) (pipe_fds p.Fleet.Supervise.pid) in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "worker %d holds only its own pipe ends" i)
            Fleet.Supervise.[ (0, ino p.to_child); (1, ino p.from_child) ]
            (List.sort compare held))
        workers)

(* --- spawned workers, faults and probes ------------------------------------ *)

(* A foreign-fingerprint result ends its assignment like any other: the
   shard is requeued and the slot is free again, so a single worker still
   finishes the run. *)
let test_foreign_result_frees_slot () =
  let f, _ = spawned_case ~mode:"foreign" ~workers:1 () in
  Alcotest.(check bool) "foreign results were retried" true (f.Fleet.Coordinator.retries >= 1)

(* A fault staged by the worker itself, on the first attempt at every even
   shard id, costs a retry and nothing else: the report is unchanged,
   nothing is quarantined, and every requeue names the staged fault. *)
let staged_fault ~mode ~reason ?heartbeat_timeout () =
  let f, log = spawned_case ~mode ~workers:2 ?heartbeat_timeout () in
  Alcotest.(check (list (pair int string)))
    "no shard quarantined" [] f.Fleet.Coordinator.quarantined;
  let staged = (f.Fleet.Coordinator.shards + 1) / 2 in
  Alcotest.(check bool)
    (Printf.sprintf "%d retries for %d staged faults" f.Fleet.Coordinator.retries staged)
    true
    (f.Fleet.Coordinator.retries >= staged);
  let requeues = List.filter (Test_env.contains ~needle:"requeued") log in
  Alcotest.(check bool) "the staged faults were requeued" true (requeues <> []);
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names %S" line reason)
        true
        (Test_env.contains ~needle:("requeued (" ^ reason) line))
    requeues

let test_staged_kill () = staged_fault ~mode:"kill" ~reason:"worker killed by signal 9" ()

(* A hang is caught only by the heartbeat timeout, here 1 s. *)
let test_staged_hang () =
  staged_fault ~mode:"hang" ~reason:"heartbeat timeout" ~heartbeat_timeout:1.0 ()

let test_staged_refusal () = staged_fault ~mode:"refuse" ~reason:"refused: staged refusal" ()

(* A recovery that spins without a [Ctx] call never returns to the
   explorer, so its worker stops beating: the coordinator kills it on the
   heartbeat timeout, requeues its shard until it is quarantined, and
   merges every other shard. The probe's [quiet] mode is the same tree with
   a recovery that returns: resumed from the fleet's remainder, it must
   complete to its uninterrupted report, so nothing but the spinning
   shard is missing and nothing is counted twice. There is no in-process
   leg: [check] would spin forever. *)
let test_probe_loop () =
  let r, _ = spawned_run ~mode:"loop" ~workers:2 ~heartbeat_timeout:0.3 (probe_case "loop") in
  (match r.Fleet.Coordinator.fleet.Fleet.Coordinator.quarantined with
  | [ (_, why) ] -> Alcotest.(check string) "quarantined for its silence" "heartbeat timeout" why
  | q -> Alcotest.failf "expected one quarantined shard, got %d" (List.length q));
  let quiet, config = probe_case "quiet" in
  let rest =
    Explorer.run ~config
      ~resume:(Explorer.to_checkpoint ~config quiet r.Fleet.Coordinator.outcome)
      quiet
  in
  Alcotest.(check string) "fleet + the quarantined shard = single process"
    (report_text (Explorer.run ~config quiet))
    (report_text rest)

(* Re-executed as [test_fleet.exe probe LEG MODE DIR], this binary runs
   [probe_case MODE] and prints its report: LEG [check] is one
   [Explorer.run] on two domains with a checkpoint in DIR, LEG [fleet] a
   coordinator run on two spawned fake workers, which also prints each
   quarantined shard and the unexplored prefix count. *)
let probe leg mode dir =
  let scn, config = probe_case mode in
  if leg = "check" then
    let config = { config with Config.jobs = 2 } in
    print_string (report_text (Explorer.run ~config ~checkpoint:(Filename.concat dir "ckpt") scn))
  else begin
    let fleet =
      {
        (Fleet.Coordinator.default ~scratch:"") with
        Fleet.Coordinator.workers = 2;
        worker_argv = Some [| Sys.executable_name; "fake-worker"; mode |];
      }
    in
    let r = Fleet.Coordinator.run ~fleet ~config ~scenario:scn in
    print_string (report_text r.Fleet.Coordinator.outcome);
    List.iter
      (fun (sid, why) -> Printf.printf "\nquarantined shard %d: %s" sid why)
      r.Fleet.Coordinator.fleet.Fleet.Coordinator.quarantined;
    Printf.printf "\nremaining %d\n" (List.length r.Fleet.Coordinator.remaining)
  end

(* The probe's exit status, its stdout and whether it left a checkpoint. *)
let run_probe leg mode =
  let dir = Filename.temp_dir "jaaru_probe" "" in
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "probe"; leg; mode; dir |] in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let ckpt = Sys.file_exists (Filename.concat dir "ckpt") in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  (status, out, ckpt)

let exited =
  Alcotest.testable
    (fun ppf -> function
      | Unix.WEXITED n -> Format.fprintf ppf "exit %d" n
      | Unix.WSIGNALED n -> Format.fprintf ppf "signal %d" n
      | Unix.WSTOPPED n -> Format.fprintf ppf "stopped %d" n)
    ( = )

(* [exit] ends an in-process run, all its work with it: no report, no
   checkpoint. The fleet loses only the worker: the shard that kills it is
   requeued until it is quarantined, and every other shard is merged. *)
let test_probe_exit () =
  let status, out, ckpt = run_probe "check" "exit" in
  Alcotest.check exited "in-process run exits with the recovery's status" (Unix.WEXITED 3)
    status;
  Alcotest.(check string) "no report" "" out;
  Alcotest.(check bool) "no checkpoint" false ckpt;
  let status, out, _ = run_probe "fleet" "exit" in
  Alcotest.check exited "the coordinator returns" (Unix.WEXITED 0) status;
  Alcotest.(check bool) "a shard is quarantined" true
    (Test_env.contains ~needle:"quarantined shard" out);
  Alcotest.(check bool) "its prefixes stay unexplored" false
    (Test_env.contains ~needle:"remaining 0" out)

(* The coordinator runs no program code, so it survives a recovery that
   exits among the first executions too: the poison shard is quarantined
   and its prefixes stay unexplored. *)
let test_probe_exit_first () =
  let status, out, _ = run_probe "fleet" "exit-first" in
  Alcotest.check exited "the coordinator returns" (Unix.WEXITED 0) status;
  Alcotest.(check bool) "a shard is quarantined" true
    (Test_env.contains ~needle:"quarantined shard" out);
  Alcotest.(check bool) "its prefixes stay unexplored" false
    (Test_env.contains ~needle:"remaining 0" out)

(* [Out_of_memory] is a bug report on both sides, the same report. *)
let test_probe_oom () =
  let status, check_out, _ = run_probe "check" "oom" in
  Alcotest.check exited "in-process run completes" (Unix.WEXITED 0) status;
  Alcotest.(check bool) "reported as resource exhaustion" true
    (Test_env.contains ~needle:"resource exhaustion" check_out);
  let status, fleet_out, _ = run_probe "fleet" "oom" in
  Alcotest.check exited "the coordinator returns" (Unix.WEXITED 0) status;
  Alcotest.(check string) "fleet report = in-process report" (check_out ^ "\nremaining 0\n")
    fleet_out

let () =
  if Array.length Sys.argv = 3 && Sys.argv.(1) = "fake-worker" then fake_worker Sys.argv.(2)
  else if Array.length Sys.argv = 5 && Sys.argv.(1) = "probe" then
    probe Sys.argv.(2) Sys.argv.(3) Sys.argv.(4)
  else
    (* The groups that spawn workers run first: OCaml 5 refuses [Unix.fork]
       in a process that has ever spawned a domain. *)
    Alcotest.run "fleet"
    [
      ( "coordinator",
        [
          Alcotest.test_case "spawned fleet = single process" `Slow
            test_coordinator_spawned_differential;
          Alcotest.test_case "spawn failure leaves the root" `Quick test_coordinator_spawn_failure;
          Alcotest.test_case "interrupt leaves a resumable remainder" `Slow
            test_coordinator_interrupt_remainder;
        ] );
      ( "spawned",
        [
          Alcotest.test_case "foreign result frees the slot" `Slow test_foreign_result_frees_slot;
          Alcotest.test_case "exit in recovery" `Slow test_probe_exit;
          Alcotest.test_case "exit in recovery among the first executions" `Slow
            test_probe_exit_first;
          Alcotest.test_case "Out_of_memory in recovery" `Slow test_probe_oom;
          Alcotest.test_case "a recovery that spins is quarantined" `Slow test_probe_loop;
          Alcotest.test_case "a preempt sent with its assignment is honoured" `Slow
            test_preempt_with_assign;
          Alcotest.test_case "workers inherit no pipes" `Slow test_pipes_not_inherited;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "a worker killed mid-shard" `Slow test_staged_kill;
          Alcotest.test_case "a worker hung mid-shard" `Slow test_staged_hang;
          Alcotest.test_case "a worker refusing its shard" `Slow test_staged_refusal;
          Alcotest.test_case "capped exponential backoff" `Quick test_backoff;
        ] );
      ( "transport",
        [
          Alcotest.test_case "round-trip over a pipe" `Quick test_transport_roundtrip;
          Alcotest.test_case "reader reassembles partial frames" `Quick
            test_transport_reader_partial_frames;
          Alcotest.test_case "corrupt frame = dead worker" `Quick test_transport_corrupt_frame;
          QCheck_alcotest.to_alcotest prop_reader_chunking;
        ] );
      ( "shatter",
        [ Alcotest.test_case "split_prefix invariants" `Quick test_split_prefix_invariants ] );
      ( "merge",
        [
          Alcotest.test_case "merge of disjoint halves" `Quick test_merge_outcomes_differential;
        ] );
    ]
