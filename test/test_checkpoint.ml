(* Survivable explorations: wall-clock budgets, cooperative interruption and
   checkpoint/resume. The load-bearing property is the differential one — a
   run interrupted (by budget or flag) and resumed from its checkpoint, as
   many times as it takes, reports byte-identically to an uninterrupted run,
   for every --jobs value and with the snapshot layer on or off. *)
open Jaaru

let report_text (o : Explorer.outcome) = Format.asprintf "%a" Explorer.pp_report o

let with_temp_file f =
  let path = Filename.temp_file "jaaru_ckpt" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* A workload big enough that a millisecond-scale budget interrupts it
   mid-flight: the first bundled PMDK case, deepened to two failures. *)
let deep_case () =
  let c = List.hd (Pmdk.Workloads.fig12_cases ()) in
  ( c.Pmdk.Workloads.scenario,
    { c.Pmdk.Workloads.config with Config.max_failures = 2; stop_at_first_bug = false } )

(* Run session after session against the same checkpoint until one completes;
   every intermediate session must end interrupted, with a resumable file on
   disk. The final safety-net session runs without a budget so a slow machine
   cannot loop forever. *)
let chain_until_complete ~config ~budget ~path scn =
  let rec go resume n sessions =
    if n > 100 then Alcotest.fail "resume chain did not converge in 100 sessions";
    let config =
      if n = 100 then { config with Config.wall_budget = None }
      else { config with Config.wall_budget = Some budget }
    in
    let o = Explorer.run ~config ?resume ~checkpoint:path scn in
    if o.Explorer.stats.Stats.interrupted then begin
      Alcotest.(check bool) "interrupted run left a checkpoint" true (Sys.file_exists path);
      go (Some (Checkpoint.load path)) (n + 1) (sessions + 1)
    end
    else (o, sessions)
  in
  go None 1 1

let test_interrupt_resume_differential () =
  let scn, config = deep_case () in
  let baseline = Explorer.run ~config:{ config with Config.jobs = 1 } scn in
  let expected = report_text baseline in
  Alcotest.(check bool) "baseline found the seeded bug" true (Explorer.found_bug baseline);
  Alcotest.(check bool) "baseline exhausted" true baseline.Explorer.stats.Stats.exhausted;
  List.iter
    (fun jobs ->
      List.iter
        (fun snapshot ->
          let config = { config with Config.jobs = jobs; snapshot } in
          with_temp_file (fun path ->
              let o, sessions = chain_until_complete ~config ~budget:0.03 ~path scn in
              let label =
                Printf.sprintf "jobs=%d snapshot=%b (%d sessions)" jobs snapshot sessions
              in
              Alcotest.(check string) (label ^ ": byte-identical report") expected (report_text o);
              Alcotest.(check bool) (label ^ ": final run exhausted") true
                o.Explorer.stats.Stats.exhausted;
              (* The whole point: at least one session actually got cut. *)
              Alcotest.(check bool) (label ^ ": chain was interrupted at least once") true
                (sessions > 1)))
        [ true; false ])
    (Test_env.jobs_matrix ~default:[ 1; 4 ])

(* The same cooperative stop, driven by the signal-handler flag instead of a
   wall budget — what SIGINT/SIGTERM trigger in the CLI. *)
let test_interrupt_flag () =
  let scn, config = deep_case () in
  let baseline = Explorer.run ~config scn in
  Explorer.clear_interrupt ();
  Fun.protect ~finally:Explorer.clear_interrupt (fun () ->
      with_temp_file (fun path ->
          let killer = Thread.create (fun () -> Thread.delay 0.05; Explorer.request_interrupt ()) () in
          let o = Explorer.run ~config ~checkpoint:path scn in
          Thread.join killer;
          (* Either the flag caught it mid-flight, or the run finished first
             on a fast machine — both must leave a resumable checkpoint. *)
          if o.Explorer.stats.Stats.interrupted then begin
            Alcotest.(check bool) "interrupted implies not exhausted" false
              o.Explorer.stats.Stats.exhausted;
            Explorer.clear_interrupt ();
            let resumed = Explorer.run ~config ~resume:(Checkpoint.load path) scn in
            Alcotest.(check string) "flag-interrupted + resumed = uninterrupted"
              (report_text baseline) (report_text resumed)
          end
          else Alcotest.(check string) "finished before the flag" (report_text baseline)
                 (report_text o)))

(* A run returns the frontier it checkpoints: for a capped and for an
   interrupted run, at every worker count, [outcome.frontier] is the
   frontier of the file the same run wrote, and the outcome alone is enough
   to finish the exploration. *)
let test_returned_frontier () =
  let scn, config = deep_case () in
  let expected = report_text (Explorer.run ~config scn) in
  List.iter
    (fun jobs ->
      List.iter
        (fun (stop, cut) ->
          let label = Printf.sprintf "%s, jobs=%d" stop jobs in
          with_temp_file (fun path ->
              let o = Explorer.run ~config:(cut { config with Config.jobs }) ~checkpoint:path scn in
              Alcotest.(check bool) (label ^ ": run was cut") true (o.Explorer.frontier <> []);
              Alcotest.(check (list string)) (label ^ ": returned = checkpointed frontier")
                (Checkpoint.load path).Checkpoint.frontier o.Explorer.frontier;
              let resumed =
                Explorer.run ~config ~resume:(Explorer.to_checkpoint ~config scn o) scn
              in
              Alcotest.(check string) (label ^ ": resumed = uninterrupted") expected
                (report_text resumed)))
        [
          ("capped", fun c -> { c with Config.max_executions = 16 });
          ("interrupted", fun c -> { c with Config.wall_budget = Some 0.03 });
        ])
    (Test_env.jobs_matrix ~default:[ 1; 4 ])

let test_completed_checkpoint_idempotent () =
  let scn, config = deep_case () in
  with_temp_file (fun path ->
      let o = Explorer.run ~config ~checkpoint:path scn in
      let cp = Checkpoint.load path in
      Alcotest.(check bool) "completion checkpoint has an empty frontier" true
        (cp.Checkpoint.frontier = []);
      let again = Explorer.run ~config ~resume:cp scn in
      Alcotest.(check string) "resuming a completed run reports the stored outcome"
        (report_text o) (report_text again);
      Alcotest.(check int) "and explores nothing new" o.Explorer.stats.Stats.executions
        again.Explorer.stats.Stats.executions)

let test_fingerprint_mismatch () =
  let scn, config = deep_case () in
  with_temp_file (fun path ->
      let _ = Explorer.run ~config ~checkpoint:path scn in
      let cp = Checkpoint.load path in
      let mismatched = { config with Config.max_failures = 1 } in
      (match Explorer.run ~config:mismatched ~resume:cp scn with
      | _ -> Alcotest.fail "resume under a different config must be rejected"
      | exception Checkpoint.Rejected msg ->
          Alcotest.(check bool) "rejection names the fingerprint" true
            (String.length msg > 0));
      (* Same config resumes fine. *)
      ignore (Explorer.run ~config ~resume:cp scn))

let test_checkpoint_corruption () =
  let scn, config = deep_case () in
  with_temp_file (fun path ->
      let _ = Explorer.run ~config ~checkpoint:path scn in
      ignore (Checkpoint.load path);
      (* Flip one payload byte: the CRC must catch it. *)
      let data = In_channel.with_open_bin path In_channel.input_all in
      let corrupt = Bytes.of_string data in
      let i = String.length data - 3 in
      Bytes.set corrupt i (Char.chr (Char.code (Bytes.get corrupt i) lxor 1));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc corrupt);
      (match Checkpoint.load path with
      | _ -> Alcotest.fail "corrupt checkpoint must be rejected"
      | exception Checkpoint.Rejected _ -> ());
      (* Not a checkpoint at all. *)
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not a checkpoint");
      match Checkpoint.load path with
      | _ -> Alcotest.fail "bad magic must be rejected"
      | exception Checkpoint.Rejected _ -> ())

(* A save that dies mid-write (full disk, kill) must neither corrupt the
   existing checkpoint nor leave its .tmp sibling behind. *)
let test_failed_save_cleans_tmp () =
  let scn, config = deep_case () in
  with_temp_file (fun path ->
      let _ = Explorer.run ~config ~checkpoint:path scn in
      let before = In_channel.with_open_bin path In_channel.input_all in
      let cp = Checkpoint.load path in
      Checkpoint.set_write_fault (Some (fun () -> failwith "disk full"));
      Fun.protect
        ~finally:(fun () -> Checkpoint.set_write_fault None)
        (fun () ->
          match Checkpoint.save cp path with
          | () -> Alcotest.fail "injected write fault must propagate"
          | exception Failure _ -> ());
      Alcotest.(check bool) "no .tmp left behind" false (Sys.file_exists (path ^ ".tmp"));
      let after = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check bool) "previous checkpoint intact" true (before = after);
      (* And it still loads: the failed save changed nothing. *)
      ignore (Checkpoint.load path))

(* --- robustness fuzz: no corrupted image is ever half-read ------------------ *)

(* One real checkpoint image, capped so it is cheap and its frontier is
   non-empty (truncations must threaten frontier bytes too, not just the
   header). Computed once and shared by both properties. *)
let fuzz_image =
  lazy
    (let scn, config = deep_case () in
     with_temp_file (fun path ->
         let config = { config with Config.max_executions = 16 } in
         let _ = Explorer.run ~config ~checkpoint:path scn in
         let img = In_channel.with_open_bin path In_channel.input_all in
         let cp = Checkpoint.load path in
         Alcotest.(check bool) "fuzz image has a frontier" true (cp.Checkpoint.frontier <> []);
         (img, Checkpoint.to_string cp)))

(* Every proper prefix of a checkpoint — a partial write that crashed before
   the file was complete — must raise Rejected, never return garbage. *)
let prop_truncation_rejected =
  QCheck.Test.make ~name:"every truncation is rejected" ~count:500
    QCheck.(pair (float_bound_inclusive 1.) small_nat)
    (fun (frac, extra) ->
      let img, _ = Lazy.force fuzz_image in
      let len = String.length img in
      (* Bias toward the interesting region boundaries but cover everything:
         cut at a fraction of the file, sometimes minus a few bytes. *)
      let n = max 0 (min (len - 1) (int_of_float (frac *. float_of_int len) - extra)) in
      match Checkpoint.of_string (String.sub img 0 n) with
      | _ -> false
      | exception Checkpoint.Rejected _ -> true)

(* A flipped bit anywhere in the image either trips the integrity checks or
   — if some byte were genuinely dead — decodes to exactly the original
   value. It must never mis-read. *)
let prop_bitflip_never_misreads =
  QCheck.Test.make ~name:"every bit flip rejects or reads back exactly" ~count:500
    QCheck.(pair (float_bound_inclusive 1.) (int_bound 7))
    (fun (frac, bit) ->
      let img, canonical = Lazy.force fuzz_image in
      let len = String.length img in
      let pos = min (len - 1) (int_of_float (frac *. float_of_int (len - 1))) in
      let flipped = Bytes.of_string img in
      Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor (1 lsl bit)));
      match Checkpoint.of_string (Bytes.unsafe_to_string flipped) with
      | cp -> Checkpoint.to_string cp = canonical
      | exception Checkpoint.Rejected _ -> true)

(* The write-fault hook as a partial-write simulator: a save that dies
   between header and payload must leave NO readable file at a fresh
   destination — partial writes never become loadable checkpoints. *)
let test_partial_write_never_loadable () =
  let scn, config = deep_case () in
  with_temp_file (fun path ->
      let _ = Explorer.run ~config ~checkpoint:path scn in
      let cp = Checkpoint.load path in
      let fresh = path ^ ".fresh" in
      Fun.protect
        ~finally:(fun () ->
          Checkpoint.set_write_fault None;
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            [ fresh; fresh ^ ".tmp" ])
        (fun () ->
          Checkpoint.set_write_fault (Some (fun () -> failwith "killed mid-write"));
          (match Checkpoint.save cp fresh with
          | () -> Alcotest.fail "injected fault must propagate"
          | exception Failure _ -> ());
          Alcotest.(check bool) "no destination file appears" false (Sys.file_exists fresh);
          Alcotest.(check bool) "no temp file survives" false
            (Sys.file_exists (fresh ^ ".tmp"))))

(* --- per-execution wall-clock deadline ------------------------------------- *)

(* A workload that spins forever while still issuing Ctx operations slowly
   enough that an effectively unbounded max_steps never fires: only the
   wall-clock deadline can end it. *)
let test_step_deadline_fires () =
  let spin =
    Explorer.scenario_single ~name:"spinner" (fun ctx ->
        while true do
          Ctx.progress ctx ()
        done)
  in
  let config =
    {
      Config.default with
      Config.max_steps = max_int;
      step_deadline = Some 0.05;
      stop_at_first_bug = false;
    }
  in
  let t0 = Unix.gettimeofday () in
  let o = Explorer.run ~config spin in
  let dt = Unix.gettimeofday () -. t0 in
  (match o.Explorer.bugs with
  | [ b ] -> (
      match b.Bug.kind with
      | Bug.Execution_timeout { seconds } ->
          Alcotest.(check (float 1e-9)) "reports the configured deadline" 0.05 seconds
      | k -> Alcotest.failf "expected Execution_timeout, got %a" Bug.pp_kind k)
  | bs -> Alcotest.failf "expected exactly one bug, got %d" (List.length bs));
  Alcotest.(check bool) "run terminated promptly" true (dt < 5.);
  Alcotest.(check bool) "the exploration itself completed" true o.Explorer.stats.Stats.exhausted;
  (* Control: the same spin IS an infinite loop to a finite step budget —
     max_steps sees it when it is small enough, proving the deadline covered
     the case the step budget could not (max_int). *)
  let o =
    Explorer.run ~config:{ config with Config.max_steps = 1_000; step_deadline = None } spin
  in
  match o.Explorer.bugs with
  | [ { Bug.kind = Bug.Infinite_loop _; _ } ] -> ()
  | _ -> Alcotest.fail "finite max_steps should report Infinite_loop"

(* --- Choice.remainder -------------------------------------------------------- *)

(* Drive a synthetic two-level decision tree by hand; stopping after [k]
   leaves and resuming from [remainder] must visit exactly the leaves the
   full enumeration had left, in order. *)
let enumerate_leaves choice ~stop_after =
  let leaves = ref [] in
  let continue = ref true in
  let n = ref 0 in
  let remainder = ref None in
  while !continue do
    match (!remainder, stop_after) with
    | None, Some k when !n >= k ->
        remainder := Some (Choice.remainder choice);
        continue := false
    | _ ->
        Choice.begin_replay choice;
        let a = Choice.choose choice Choice.Failure_point 3 in
        let b = Choice.choose choice Choice.Read_from 2 in
        leaves := (a, b) :: !leaves;
        incr n;
        if not (Choice.advance choice) then continue := false
  done;
  (List.rev !leaves, !remainder)

let test_choice_remainder () =
  let all, r = enumerate_leaves (Choice.create ()) ~stop_after:None in
  Alcotest.(check (list (pair int int)))
    "full enumeration"
    [ (0, 0); (0, 1); (1, 0); (1, 1); (2, 0); (2, 1) ]
    all;
  Alcotest.(check bool) "no remainder when run to completion" true (r = None);
  for k = 1 to 5 do
    let first, r = enumerate_leaves (Choice.create ()) ~stop_after:(Some k) in
    match r with
    | None -> Alcotest.fail "stopped enumeration must produce a remainder"
    | Some prefix ->
        let resumed = Choice.create () in
        Choice.restart resumed prefix;
        let rest, _ = enumerate_leaves resumed ~stop_after:None in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "stop after %d + resume = full" k)
          all (first @ rest)
  done

(* --- satellite: dedicated kinds and message normalization ------------------- *)

let bug kind =
  { Bug.kind; location = "spot"; exec_depth = 0; trace = []; dropped = 0 }

let test_step_limit_kind () =
  let sl = bug (Bug.Step_limit { resource = "stack" }) in
  let pe = bug (Bug.Program_exception "resource exhaustion") in
  Alcotest.(check bool) "Step_limit dedups separately from Program_exception" false
    (Bug.report_key sl = Bug.report_key pe);
  (* Rendering compatibility: the symptom line still reads like the old
     Program_exception string. *)
  Alcotest.(check string) "symptom keeps the legacy wording" "resource exhaustion at spot"
    (Bug.symptom sl);
  let tm = bug (Bug.Execution_timeout { seconds = 0.5 }) in
  Alcotest.(check bool) "Execution_timeout has its own key" false
    (Bug.report_key tm = Bug.report_key pe)

let test_normalize_message () =
  Alcotest.(check string) "hex runs become placeholders" "Failure(0x<addr>, 0x<addr>)"
    (Bug.normalize_message "Failure(0x7f3a91b2c4d0, 0XDEADbeef)");
  (* Case-insensitivity regressions: the scrubber must treat the 0X prefix
     and upper-case hex digits exactly like their lower-case forms, or
     identical exceptions printed by different runtimes dedup to different
     keys. *)
  Alcotest.(check string) "upper-case 0X prefix" "err at 0x<addr>"
    (Bug.normalize_message "err at 0X7F3A91B2C4D0");
  Alcotest.(check string) "upper-case hex digits" "err at 0x<addr>"
    (Bug.normalize_message "err at 0xABC");
  Alcotest.(check string) "mixed-case hex digits" "err at 0x<addr>"
    (Bug.normalize_message "err at 0xDeadBeef");
  let report msg = bug (Bug.Program_exception (Bug.normalize_message msg)) in
  Alcotest.(check bool) "case variants yield structurally equal reports" true
    (report "Failure(0xdeadbeef)" = report "Failure(0XDEADBEEF)");
  Alcotest.(check string) "first line only" "header"
    (Bug.normalize_message "header\nRaised at Foo.bar in file \"foo.ml\"");
  Alcotest.(check string) "plain messages unchanged" "Not_found"
    (Bug.normalize_message "Not_found");
  Alcotest.(check string) "0x alone is not an address" "0x" (Bug.normalize_message "0x");
  let long = String.make 300 'a' in
  Alcotest.(check int) "long messages are capped" 200
    (String.length (Bug.normalize_message long))

let () =
  Alcotest.run "checkpoint"
    [
      ( "differential",
        [
          Alcotest.test_case "interrupt+resume = uninterrupted" `Slow
            test_interrupt_resume_differential;
          Alcotest.test_case "interrupt flag" `Quick test_interrupt_flag;
          Alcotest.test_case "returned frontier = checkpointed frontier" `Quick
            test_returned_frontier;
          Alcotest.test_case "completed checkpoint idempotent" `Quick
            test_completed_checkpoint_idempotent;
        ] );
      ( "validation",
        [
          Alcotest.test_case "fingerprint mismatch rejected" `Quick test_fingerprint_mismatch;
          Alcotest.test_case "corruption rejected" `Quick test_checkpoint_corruption;
          Alcotest.test_case "failed save cleans up its temp file" `Quick
            test_failed_save_cleans_tmp;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_truncation_rejected;
          QCheck_alcotest.to_alcotest prop_bitflip_never_misreads;
          Alcotest.test_case "partial write never becomes loadable" `Quick
            test_partial_write_never_loadable;
        ] );
      ( "watchdog",
        [ Alcotest.test_case "step deadline fires, max_steps does not" `Quick
            test_step_deadline_fires ] );
      ("choice", [ Alcotest.test_case "remainder resumes exactly" `Quick test_choice_remainder ]);
      ( "bug-kinds",
        [
          Alcotest.test_case "Step_limit dedup" `Quick test_step_limit_kind;
          Alcotest.test_case "normalize_message" `Quick test_normalize_message;
        ] );
    ]
