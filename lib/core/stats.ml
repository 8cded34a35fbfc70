type t = {
  executions : int;
  failure_points : int;
  rf_decisions : int;
  multi_rf_loads : int;
  stores : int;
  flushes : int;
  findings : int;
  memo_hits : int;
  memo_misses : int;
  memo_saved : int;
  snapshot_hits : int;
  snapshot_misses : int;
  sheds : int;
  wall_time : float;
  exhausted : bool;
  interrupted : bool;
}

let zero =
  {
    executions = 0;
    failure_points = 0;
    rf_decisions = 0;
    multi_rf_loads = 0;
    stores = 0;
    flushes = 0;
    findings = 0;
    memo_hits = 0;
    memo_misses = 0;
    memo_saved = 0;
    snapshot_hits = 0;
    snapshot_misses = 0;
    sheds = 0;
    wall_time = 0.;
    exhausted = true;
    interrupted = false;
  }

let merge a b =
  {
    (* Per-worker additive counters. *)
    executions = a.executions + b.executions;
    rf_decisions = a.rf_decisions + b.rf_decisions;
    (* Inert: see stats.mli. Zeroed here so counts carried in by an older
       checkpoint do not survive a resume. *)
    memo_hits = 0;
    memo_misses = 0;
    memo_saved = 0;
    snapshot_hits = a.snapshot_hits + b.snapshot_hits;
    snapshot_misses = a.snapshot_misses + b.snapshot_misses;
    sheds = a.sheds + b.sheds;
    (* Properties of the original (failure-free) execution: exactly one
       worker — whichever ran the root subtree — observed them. *)
    failure_points = max a.failure_points b.failure_points;
    stores = max a.stores b.stores;
    flushes = max a.flushes b.flushes;
    multi_rf_loads = max a.multi_rf_loads b.multi_rf_loads;
    findings = max a.findings b.findings;
    (* Workers ran concurrently, so the slowest one bounds the wall clock. *)
    wall_time = max a.wall_time b.wall_time;
    exhausted = a.exhausted && b.exhausted;
    interrupted = a.interrupted || b.interrupted;
  }

(* Everything that is allowed to differ between runs that must otherwise be
   byte-identical (jobs values, snapshot on vs off): wall time, snapshot
   traffic and sheds. *)
let comparable s =
  {
    s with
    snapshot_hits = 0;
    snapshot_misses = 0;
    sheds = 0;
    wall_time = 0.;
  }

let executions_per_fp s =
  if s.failure_points = 0 then 0. else float_of_int s.executions /. float_of_int s.failure_points

let pp ppf s =
  Format.fprintf ppf
    "%d executions over %d failure points (%.2f per fp), %d rf decisions, %d multi-rf loads, %d \
     stores, %d flushes, %.3fs%s"
    s.executions s.failure_points (executions_per_fp s) s.rf_decisions s.multi_rf_loads s.stores
    s.flushes s.wall_time
    ((if s.findings > 0 then Printf.sprintf ", %d analysis findings" s.findings else "")
    ^ (if s.sheds > 0 then Printf.sprintf ", %d cache sheds" s.sheds else "")
    ^
    if s.interrupted then " (interrupted)" else if s.exhausted then "" else " (cut short)")
