(* On-disk checkpoints of a partially explored choice tree. See
   checkpoint.mli for the format and the fingerprint rationale. *)

module Wire = Pmem.Wire

exception Rejected of string

type t = {
  fingerprint : string;
  frontier : string list;
  bugs : Bug.t list;
  multi_rf : Ctx.multi_rf list;
  perf : Ctx.perf_report list;
  findings : Analysis.Report.finding list;
  stats : Stats.t;
}

(* --- payload codecs -------------------------------------------------------

   The payload is a hand-rolled structural encoding (Pmem.Wire) rather than
   a [Marshal] image: the format is explicit per
   field, so it neither breaks silently when a record changes shape (the
   codec stops compiling instead) nor accepts a hostile [Marshal] blob that
   happens to pass the CRC. Every writer below has a matching reader; a
   mismatch surfaces as [Wire.Corrupt] and is mapped to {!Rejected}. *)

let wr_kind b = function
  | Bug.Illegal_access { addr; width; op } ->
      Wire.int b 0;
      Wire.int b addr;
      Wire.int b width;
      Wire.string b op
  | Bug.Assertion_failure msg ->
      Wire.int b 1;
      Wire.string b msg
  | Bug.Infinite_loop { steps } ->
      Wire.int b 2;
      Wire.int b steps
  | Bug.Program_exception msg ->
      Wire.int b 3;
      Wire.string b msg
  | Bug.Step_limit { resource } ->
      Wire.int b 4;
      Wire.string b resource
  | Bug.Execution_timeout { seconds } ->
      Wire.int b 5;
      Wire.float b seconds

let rd_kind s =
  match Wire.rd_int s with
  | 0 ->
      let addr = Wire.rd_int s in
      let width = Wire.rd_int s in
      let op = Wire.rd_string s in
      Bug.Illegal_access { addr; width; op }
  | 1 -> Bug.Assertion_failure (Wire.rd_string s)
  | 2 -> Bug.Infinite_loop { steps = Wire.rd_int s }
  | 3 -> Bug.Program_exception (Wire.rd_string s)
  | 4 -> Bug.Step_limit { resource = Wire.rd_string s }
  | 5 -> Bug.Execution_timeout { seconds = Wire.rd_float s }
  | n -> raise (Wire.Corrupt (Printf.sprintf "unknown bug kind tag %d" n))

let wr_bug b (x : Bug.t) =
  wr_kind b x.Bug.kind;
  Wire.string b x.Bug.location;
  Wire.int b x.Bug.exec_depth;
  Wire.list Wire.string b x.Bug.trace;
  Wire.int b x.Bug.dropped

let rd_bug s =
  let kind = rd_kind s in
  let location = Wire.rd_string s in
  let exec_depth = Wire.rd_int s in
  let trace = Wire.rd_list Wire.rd_string s in
  let dropped = Wire.rd_int s in
  { Bug.kind; location; exec_depth; trace; dropped }

let wr_candidate b (label, value) =
  Wire.string b label;
  Wire.int b value

let rd_candidate s =
  let label = Wire.rd_string s in
  let value = Wire.rd_int s in
  (label, value)

let wr_multi_rf b (x : Ctx.multi_rf) =
  Wire.string b x.Ctx.load_label;
  Wire.int b x.Ctx.load_addr;
  Wire.list wr_candidate b x.Ctx.candidates

let rd_multi_rf s =
  let load_label = Wire.rd_string s in
  let load_addr = Wire.rd_int s in
  let candidates = Wire.rd_list rd_candidate s in
  { Ctx.load_label; load_addr; candidates }

let wr_perf b (x : Ctx.perf_report) =
  Wire.int b (match x.Ctx.perf_kind with Ctx.Redundant_flush -> 0 | Ctx.Redundant_fence -> 1);
  Wire.string b x.Ctx.perf_label

let rd_perf s =
  let perf_kind =
    match Wire.rd_int s with
    | 0 -> Ctx.Redundant_flush
    | 1 -> Ctx.Redundant_fence
    | n -> raise (Wire.Corrupt (Printf.sprintf "unknown perf kind tag %d" n))
  in
  let perf_label = Wire.rd_string s in
  { Ctx.perf_kind; perf_label }

let wr_severity b (x : Analysis.Report.severity) =
  Wire.int b
    (match x with Analysis.Report.Low -> 0 | Analysis.Report.Medium -> 1 | Analysis.Report.High -> 2)

let rd_severity s =
  match Wire.rd_int s with
  | 0 -> Analysis.Report.Low
  | 1 -> Analysis.Report.Medium
  | 2 -> Analysis.Report.High
  | n -> raise (Wire.Corrupt (Printf.sprintf "unknown severity tag %d" n))

let wr_finding b (x : Analysis.Report.finding) =
  wr_severity b x.Analysis.Report.severity;
  Wire.string b x.Analysis.Report.pass;
  Wire.string b x.Analysis.Report.rule;
  Wire.list Wire.string b x.Analysis.Report.labels;
  Wire.option Wire.int b x.Analysis.Report.line;
  Wire.string b x.Analysis.Report.detail

let rd_finding s =
  let severity = rd_severity s in
  let pass = Wire.rd_string s in
  let rule = Wire.rd_string s in
  let labels = Wire.rd_list Wire.rd_string s in
  let line = Wire.rd_option Wire.rd_int s in
  let detail = Wire.rd_string s in
  { Analysis.Report.severity; pass; rule; labels; line; detail }

let wr_stats b (x : Stats.t) =
  Wire.int b x.Stats.executions;
  Wire.int b x.Stats.failure_points;
  Wire.int b x.Stats.rf_decisions;
  Wire.int b x.Stats.multi_rf_loads;
  Wire.int b x.Stats.stores;
  Wire.int b x.Stats.flushes;
  Wire.int b x.Stats.findings;
  Wire.int b x.Stats.memo_hits;
  Wire.int b x.Stats.memo_misses;
  Wire.int b x.Stats.memo_saved;
  Wire.int b x.Stats.snapshot_hits;
  Wire.int b x.Stats.snapshot_misses;
  Wire.int b x.Stats.sheds;
  Wire.float b x.Stats.wall_time;
  Wire.bool b x.Stats.exhausted;
  Wire.bool b x.Stats.interrupted

let rd_stats s =
  let executions = Wire.rd_int s in
  let failure_points = Wire.rd_int s in
  let rf_decisions = Wire.rd_int s in
  let multi_rf_loads = Wire.rd_int s in
  let stores = Wire.rd_int s in
  let flushes = Wire.rd_int s in
  let findings = Wire.rd_int s in
  let memo_hits = Wire.rd_int s in
  let memo_misses = Wire.rd_int s in
  let memo_saved = Wire.rd_int s in
  let snapshot_hits = Wire.rd_int s in
  let snapshot_misses = Wire.rd_int s in
  let sheds = Wire.rd_int s in
  let wall_time = Wire.rd_float s in
  let exhausted = Wire.rd_bool s in
  let interrupted = Wire.rd_bool s in
  {
    Stats.executions;
    failure_points;
    rf_decisions;
    multi_rf_loads;
    stores;
    flushes;
    findings;
    memo_hits;
    memo_misses;
    memo_saved;
    snapshot_hits;
    snapshot_misses;
    sheds;
    wall_time;
    exhausted;
    interrupted;
  }

let encode t =
  let b = Wire.sink () in
  Wire.string b t.fingerprint;
  Wire.list Wire.string b t.frontier;
  Wire.list wr_bug b t.bugs;
  Wire.list wr_multi_rf b t.multi_rf;
  Wire.list wr_perf b t.perf;
  Wire.list wr_finding b t.findings;
  wr_stats b t.stats;
  Wire.contents b

let decode payload =
  let s = Wire.src payload in
  let fingerprint = Wire.rd_string s in
  let frontier = Wire.rd_list Wire.rd_string s in
  let bugs = Wire.rd_list rd_bug s in
  let multi_rf = Wire.rd_list rd_multi_rf s in
  let perf = Wire.rd_list rd_perf s in
  let findings = Wire.rd_list rd_finding s in
  let stats = rd_stats s in
  Wire.expect_end s;
  { fingerprint; frontier; bugs; multi_rf; perf; findings; stats }

(* Only the fields that shape the choice tree and the reports participate:
   everything a resumed run may legitimately change — [jobs], [snapshot],
   [trace_depth], the budgets, [checkpoint_every] — is excluded, because outcomes
   are identical across those settings (the acceptance property resumption
   relies on). [step_deadline] IS included: its timeouts surface as bugs, so
   resuming under a different deadline would merge incomparable report
   sets. *)
let fingerprint ~workload (c : Config.t) =
  let b = Wire.sink ~initial:256 () in
  Wire.string b workload;
  Wire.int b c.max_failures;
  Wire.int b (match c.evict_policy with Config.Eager -> 0 | Config.Buffered -> 1);
  Wire.int b c.max_steps;
  Wire.int b c.max_executions;
  Wire.bool b c.stop_at_first_bug;
  Wire.bool b c.report_multi_rf;
  (* The slot of the removed [report_perf] option, which was always on:
     writing [true] keeps the fingerprints of older checkpoints valid. *)
  Wire.bool b true;
  Wire.option Wire.int b c.schedule_seed;
  Wire.int b c.region_base;
  Wire.int b c.region_size;
  (* The slot of [trace_depth], which only decides whether bug traces are
     recorded (no report shows them): writing the default depth lets a run
     resume with or without --trace and keeps older fingerprints valid. *)
  Wire.int b 64;
  Wire.bool b c.analyze;
  Wire.bool b c.analyze_hb;
  Wire.list Wire.string b c.suppress;
  Wire.option Wire.float b c.step_deadline;
  Printf.sprintf "%08x" (Wire.crc b)

let magic = "jaaru-checkpoint-v2"

let make ~fingerprint ~frontier ~bugs ~multi_rf ~perf ~findings ~stats =
  { fingerprint; frontier; bugs; multi_rf; perf; findings; stats }

let frontier_prefixes t =
  List.map
    (fun s ->
      match Choice.decode_prefix s with
      | Some p -> p
      | None -> raise (Rejected (Printf.sprintf "corrupt frontier prefix %S" s)))
    t.frontier

(* Test hook: called between header and payload writes, so tests can inject
   a mid-save failure (full disk, kill) and assert the cleanup behavior. *)
let write_fault : (unit -> unit) option ref = ref None
let set_write_fault f = write_fault := f

(* Atomic save: write to a sibling temp file, fsync-less rename. A crash
   mid-checkpoint leaves the previous checkpoint intact; a crash between
   rename and the next one only loses progress, never corrupts. A save that
   fails before the rename removes its temp file — long-running sessions
   checkpoint periodically and must not litter the directory with stale
   [.tmp] files on, say, a full disk. *)
let save t path =
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let payload = encode t in
        output_string oc magic;
        output_char oc '\n';
        Printf.fprintf oc "%08x\n" (Pmem.Crc32.digest_string payload);
        (match !write_fault with None -> () | Some f -> f ());
        output_string oc payload);
    Sys.rename tmp path
  with e -> (
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    match e with
    | Sys_error msg -> raise (Rejected (Printf.sprintf "cannot write checkpoint %s: %s" path msg))
    | e -> Printexc.raise_with_backtrace e bt)

(* Checked before a run explores anything, so a typo in the path does not
   cost the whole exploration: [save] would only fail at the end. *)
let check_writable path =
  let fail why = raise (Rejected (Printf.sprintf "cannot write checkpoint %s: %s" path why)) in
  if Sys.file_exists path && Sys.is_directory path then fail "it is a directory";
  let dir = Filename.dirname path in
  match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      fail (Printf.sprintf "directory %s: %s" dir (Unix.error_message e))

(* The exact byte image [save] writes — header (magic line, CRC line) plus
   the Wire payload. Exposed so fleet workers can ship their outcome
   checkpoints over a pipe instead of through the filesystem; the integrity
   checks of [of_string] are the same ones [load] applies to a file. *)
let to_string t =
  let payload = encode t in
  Printf.sprintf "%s\n%08x\n%s" magic (Pmem.Crc32.digest_string payload) payload

let of_string s =
  let line_end from =
    match String.index_from_opt s from '\n' with
    | Some i -> i
    | None -> raise (Rejected "truncated checkpoint")
  in
  let m_end = line_end 0 in
  if String.sub s 0 m_end <> magic then raise (Rejected "not a jaaru checkpoint (bad magic)");
  let c_end = line_end (m_end + 1) in
  let crc = String.sub s (m_end + 1) (c_end - m_end - 1) in
  let payload = String.sub s (c_end + 1) (String.length s - c_end - 1) in
  if Printf.sprintf "%08x" (Pmem.Crc32.digest_string payload) <> crc then
    raise (Rejected "checkpoint payload fails its checksum");
  let t =
    try decode payload
    with Wire.Corrupt msg ->
      raise (Rejected (Printf.sprintf "checkpoint payload fails to deserialize: %s" msg))
  in
  (* Fail early on undecodable prefixes rather than mid-resume. *)
  ignore (frontier_prefixes t);
  t

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg ->
      raise (Rejected (Printf.sprintf "cannot read checkpoint %s: %s" path msg))

let validate t ~workload ~config =
  let expected = fingerprint ~workload config in
  if t.fingerprint <> expected then
    raise
      (Rejected
         (Printf.sprintf
            "checkpoint fingerprint %s does not match this run's %s — different workload or \
             configuration (the tree shapes would not line up); re-run without --resume or \
             restore the original flags"
            t.fingerprint expected))
