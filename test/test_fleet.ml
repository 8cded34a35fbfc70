(* Fleet mode: the transport framing, the chaos/backoff machinery, prefix
   shattering, and — the load-bearing property — that a coordinator run,
   on spawned worker processes (this binary re-executed as a fake worker)
   or in-process (the fallback onto the explorer's domains that every fleet
   can degrade to), reports byte-identically to a plain single-process
   exploration. scripts/fleet_chaos_smoke.sh drives the real CLI worker
   under injected faults. *)
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

(* --- chaos spec and backoff ------------------------------------------------ *)

let test_chaos_parse () =
  let c = Fleet.Supervise.parse_chaos "kill:0.3,hang:0.1,torn:0.2" in
  Alcotest.(check (float 1e-9)) "kill" 0.3 c.Fleet.Supervise.kill;
  Alcotest.(check (float 1e-9)) "hang" 0.1 c.Fleet.Supervise.hang;
  Alcotest.(check (float 1e-9)) "torn" 0.2 c.Fleet.Supervise.torn;
  let c = Fleet.Supervise.parse_chaos "torn:1" in
  Alcotest.(check (float 1e-9)) "single mode" 1.0 c.Fleet.Supervise.torn;
  Alcotest.(check (float 1e-9)) "others default to 0" 0.0 c.Fleet.Supervise.kill;
  Alcotest.(check bool) "empty spec is no chaos" true
    (Fleet.Supervise.parse_chaos "" = Fleet.Supervise.no_chaos);
  List.iter
    (fun bad ->
      match Fleet.Supervise.parse_chaos bad with
      | _ -> Alcotest.failf "%S must be rejected" bad
      | exception Invalid_argument _ -> ())
    [ "kill"; "kill:2"; "kill:-0.1"; "explode:0.5"; "kill:abc" ]

let test_chaos_plan_deterministic () =
  let c = Fleet.Supervise.parse_chaos "kill:0.5,hang:0.5,torn:0.5" in
  let draw seed n =
    let rng = Random.State.make [| seed |] in
    List.init n (fun _ -> Fleet.Supervise.plan rng c)
  in
  Alcotest.(check bool) "same seed, same fault schedule" true (draw 7 50 = draw 7 50);
  let plans = draw 7 200 in
  Alcotest.(check bool) "a 0.5 spec injects sometimes" true
    (List.exists Fleet.Supervise.injects plans);
  Alcotest.(check bool) "a 0.5 spec spares sometimes" true
    (List.exists (fun p -> not (Fleet.Supervise.injects p)) plans);
  let rng = Random.State.make [| 1 |] in
  Alcotest.(check bool) "no_chaos never injects" false
    (List.exists Fleet.Supervise.injects
       (List.init 100 (fun _ -> Fleet.Supervise.plan rng Fleet.Supervise.no_chaos)))

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

(* --- the coordinator (in-process fallback) ----------------------------------- *)

let coordinator_case scn config ~chaos ~workers =
  let fleet =
    { (Fleet.Coordinator.default ~scratch:"") with Fleet.Coordinator.workers; chaos; worker_argv = None }
  in
  Fleet.Coordinator.run ~fleet ~config ~scenario:scn

let test_coordinator_in_process_differential () =
  let scn, config = deep_case () in
  let expected = report_text (Explorer.run ~config scn) in
  List.iter
    (fun workers ->
      let r = coordinator_case scn config ~chaos:Fleet.Supervise.no_chaos ~workers in
      Alcotest.(check string)
        (Printf.sprintf "fleet(workers=%d, in-process) = single process" workers)
        expected (report_text r.Fleet.Coordinator.outcome);
      Alcotest.(check bool) "nothing remaining" true (r.Fleet.Coordinator.remaining = []);
      Alcotest.(check bool) "not interrupted" false r.Fleet.Coordinator.interrupted;
      Alcotest.(check bool) "fell back in-process" true r.Fleet.Coordinator.fleet.Fleet.Coordinator.in_process;
      Alcotest.(check bool) "no quarantine" true
        (r.Fleet.Coordinator.fleet.Fleet.Coordinator.quarantined = []))
    [ 1; 2; 4 ]

(* Spawn failures must degrade, not abort: a worker argv that cannot exist
   disables every slot and the coordinator completes the run itself, still
   byte-identically. *)
let test_coordinator_degrades_on_spawn_failure () =
  let scn, config = deep_case () in
  let expected = report_text (Explorer.run ~config scn) in
  let fleet =
    {
      (Fleet.Coordinator.default ~scratch:"") with
      Fleet.Coordinator.workers = 2;
      spawn_attempts = 2;
      worker_argv = Some [| "/nonexistent/jaaru-worker-binary" |];
    }
  in
  let r = Fleet.Coordinator.run ~fleet ~config ~scenario:scn in
  Alcotest.(check string) "degraded fleet = single process" expected
    (report_text r.Fleet.Coordinator.outcome);
  Alcotest.(check bool) "spawn failures were counted" true
    (r.Fleet.Coordinator.fleet.Fleet.Coordinator.spawn_failures > 0);
  Alcotest.(check int) "no effective workers" 0
    r.Fleet.Coordinator.fleet.Fleet.Coordinator.workers_effective;
  Alcotest.(check bool) "degraded to in-process" true
    r.Fleet.Coordinator.fleet.Fleet.Coordinator.in_process

(* An interrupt mid-fleet must leave a remainder that, resumed as a plain
   checkpoint, completes to the uninterrupted report — fleet and check
   checkpoints are interchangeable. *)
let test_coordinator_interrupt_remainder () =
  let scn, config = deep_case () in
  let expected = report_text (Explorer.run ~config scn) in
  Explorer.clear_interrupt ();
  Fun.protect ~finally:Explorer.clear_interrupt (fun () ->
      let killer =
        Thread.create
          (fun () ->
            Thread.delay 0.05;
            Explorer.request_interrupt ())
          ()
      in
      let r = coordinator_case scn config ~chaos:Fleet.Supervise.no_chaos ~workers:2 in
      Thread.join killer;
      if r.Fleet.Coordinator.interrupted then begin
        Alcotest.(check bool) "interrupted fleet reports interrupted stats" true
          r.Fleet.Coordinator.outcome.Explorer.stats.Stats.interrupted;
        Explorer.clear_interrupt ();
        let o = r.Fleet.Coordinator.outcome in
        Alcotest.(check (list string)) "the outcome carries the remainder"
          r.Fleet.Coordinator.remaining o.Explorer.frontier;
        let final = Explorer.run ~config ~resume:(Explorer.to_checkpoint ~config scn o) scn in
        Alcotest.(check string) "interrupted fleet + resume = uninterrupted" expected
          (report_text final)
      end
      else
        (* The machine outran the killer: the complete report must match. *)
        Alcotest.(check string) "uninterrupted fleet = single process" expected
          (report_text r.Fleet.Coordinator.outcome))

(* --- spawned workers ------------------------------------------------------- *)

(* This test binary doubles as a fleet worker: re-executed as
   [test_fleet.exe fake-worker MODE], it serves shards of [deep_case]
   through {!Fleet.Worker.serve}, exploring each honestly. In mode
   [foreign], every shard's first attempt answers with a result carrying a
   wrong fingerprint. *)
let fake_worker mode =
  let scn, config = deep_case () in
  let run ~shard:_ ~attempt ~payload =
    let cp = Checkpoint.of_string payload in
    Checkpoint.validate cp ~workload:scn.Explorer.name ~config;
    Explorer.clear_interrupt ();
    let o = Explorer.run ~config ~resume:cp scn in
    let cp = Explorer.to_checkpoint ~config scn o in
    let cp =
      if mode = "foreign" && attempt = 1 then { cp with Checkpoint.fingerprint = "foreign" }
      else cp
    in
    Ok (Checkpoint.to_string cp)
  in
  Fleet.Worker.serve ~on_preempt:Explorer.request_interrupt ~run ()

(* One fleet run on a single spawned fake worker. A watchdog interrupts the
   run after 30 s, so a wedged coordinator fails the test instead of hanging
   it. *)
let spawned_case ~mode ?(chaos = Fleet.Supervise.no_chaos) ?(quarantine_after = 3) () =
  let scn, config = deep_case () in
  let fleet =
    {
      (Fleet.Coordinator.default ~scratch:"") with
      Fleet.Coordinator.workers = 1;
      chaos;
      chaos_seed = 7;
      quarantine_after;
      worker_argv = Some [| Sys.executable_name; "fake-worker"; mode |];
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
  Alcotest.(check bool) "not interrupted by the watchdog" false r.Fleet.Coordinator.interrupted;
  Alcotest.(check (list string)) "nothing remaining" [] r.Fleet.Coordinator.remaining;
  Alcotest.(check bool) "ran on worker processes" false
    r.Fleet.Coordinator.fleet.Fleet.Coordinator.in_process;
  Alcotest.(check string) "spawned fleet = single process"
    (report_text (Explorer.run ~config scn))
    (report_text r.Fleet.Coordinator.outcome);
  r.Fleet.Coordinator.fleet

(* A foreign-fingerprint result ends its assignment like any other: the
   shard is requeued and the slot is free again, so a single worker still
   finishes the run. *)
let test_foreign_result_frees_slot () =
  let f = spawned_case ~mode:"foreign" () in
  Alcotest.(check bool) "foreign results were retried" true (f.Fleet.Coordinator.retries >= 1)

(* A chaos kill belongs to one assignment. Under this seed a small shard
   answers before its planned kill is due and the next, larger shard is
   drawn without a kill; a kill that outlived its assignment would land on
   that one, count as a real failure and, with [quarantine_after = 1],
   quarantine it. *)
let test_chaos_kill_ends_with_its_assignment () =
  let f =
    spawned_case ~mode:"honest"
      ~chaos:{ Fleet.Supervise.no_chaos with kill = 0.5 }
      ~quarantine_after:1 ()
  in
  Alcotest.(check (list (pair int string)))
    "no shard quarantined" [] f.Fleet.Coordinator.quarantined

let () =
  if Array.length Sys.argv = 3 && Sys.argv.(1) = "fake-worker" then fake_worker Sys.argv.(2)
  else
    (* The spawned group runs first: OCaml 5 refuses [Unix.fork] in a
       process that has ever spawned a domain, and the in-process
       coordinator tests below do. *)
    Alcotest.run "fleet"
    [
      ( "spawned",
        [
          Alcotest.test_case "foreign result frees the slot" `Slow test_foreign_result_frees_slot;
          Alcotest.test_case "a chaos kill ends with its assignment" `Slow
            test_chaos_kill_ends_with_its_assignment;
        ] );
      ( "transport",
        [
          Alcotest.test_case "round-trip over a pipe" `Quick test_transport_roundtrip;
          Alcotest.test_case "reader reassembles partial frames" `Quick
            test_transport_reader_partial_frames;
          Alcotest.test_case "corrupt frame = dead worker" `Quick test_transport_corrupt_frame;
          QCheck_alcotest.to_alcotest prop_reader_chunking;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "spec parsing" `Quick test_chaos_parse;
          Alcotest.test_case "fault schedule is seeded" `Quick test_chaos_plan_deterministic;
          Alcotest.test_case "capped exponential backoff" `Quick test_backoff;
        ] );
      ( "shatter",
        [ Alcotest.test_case "split_prefix invariants" `Quick test_split_prefix_invariants ] );
      ( "merge",
        [
          Alcotest.test_case "merge of disjoint halves" `Quick test_merge_outcomes_differential;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "in-process fleet = single process" `Slow
            test_coordinator_in_process_differential;
          Alcotest.test_case "degrades on spawn failure" `Slow
            test_coordinator_degrades_on_spawn_failure;
          Alcotest.test_case "interrupt leaves a resumable remainder" `Quick
            test_coordinator_interrupt_remainder;
        ] );

    ]
