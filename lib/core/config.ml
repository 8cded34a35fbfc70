type evict_policy = Eager | Buffered

type t = {
  max_failures : int;
  evict_policy : evict_policy;
  max_steps : int;
  max_executions : int;
  jobs : int;
  stop_at_first_bug : bool;
  report_multi_rf : bool;
  schedule_seed : int option;
  region_base : Pmem.Addr.t;
  region_size : int;
  trace_depth : int;
  analyze : bool;
  analyze_hb : bool;
  suppress : string list;
  snapshot : bool;
  memo : bool;  (* inert, see config.mli *)
  wall_budget : float option;
  step_deadline : float option;
  mem_budget : int option;
  checkpoint_every : float;
}

let default =
  {
    max_failures = 1;
    evict_policy = Eager;
    max_steps = 2_000_000;
    max_executions = 100_000;
    jobs = 1;
    stop_at_first_bug = false;
    report_multi_rf = true;
    schedule_seed = None;
    region_base = 0x1000;
    region_size = 64 * 1024;
    trace_depth = 64;
    analyze = false;
    analyze_hb = true;
    suppress = [];
    snapshot = true;
    memo = true;
    wall_budget = None;
    step_deadline = None;
    mem_budget = None;
    checkpoint_every = 30.;
  }

let policy_name = function Eager -> "eager" | Buffered -> "buffered"

let pp ppf c =
  Format.fprintf ppf
    "max_failures=%d evict=%s max_steps=%d max_executions=%d jobs=%d snapshot=%s \
     region=[0x%x,+%d)%s%s%s"
    c.max_failures (policy_name c.evict_policy) c.max_steps c.max_executions c.jobs
    (if c.snapshot then "on" else "off")
    c.region_base c.region_size
    (match c.wall_budget with Some b -> Printf.sprintf " wall_budget=%gs" b | None -> "")
    (match c.step_deadline with Some d -> Printf.sprintf " step_deadline=%gs" d | None -> "")
    (match c.mem_budget with Some m -> Printf.sprintf " mem_budget=%dB" m | None -> "")
