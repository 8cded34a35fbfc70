(* The watchdog that makes explorations self-limiting: a single POSIX thread
   (not a domain — it spends its life in [Thread.delay] and must not tie up a
   core) sampling wall clock, the interrupt flag and the GC heap, and talking
   to the workers exclusively through atomics. See monitor.mli. *)

type reason = Interrupt | Wall_budget | Tick

(* Per-worker communication cells. [start] is the wall-clock stamp of the
   in-flight execution, [neg_infinity] when the worker is between
   executions. *)
type slot = { start : float Atomic.t; cancel : bool Atomic.t; shed : bool Atomic.t }

type t = {
  slots : slot array;
  interrupt : bool Atomic.t;
  wall_deadline : float option;
  tick_deadline : float option;
  step_deadline : float option;
  mem_budget : int option;
  on_stop : reason -> unit;
  stop_fired : bool Atomic.t;
  mem_armed : bool Atomic.t;
  quit : bool Atomic.t;
  mutable thread : Thread.t option;
}

let create ~workers ~interrupt ?wall_deadline ?tick_deadline ?step_deadline ?mem_budget
    ~on_stop () =
  if workers <= 0 then invalid_arg "Monitor.create: workers must be positive";
  {
    slots =
      Array.init workers (fun _ ->
          {
            start = Atomic.make neg_infinity;
            cancel = Atomic.make false;
            shed = Atomic.make false;
          });
    interrupt;
    wall_deadline;
    tick_deadline;
    step_deadline;
    mem_budget;
    on_stop;
    stop_fired = Atomic.make false;
    mem_armed = Atomic.make true;
    quit = Atomic.make false;
    thread = None;
  }

let cancel_flag t i = t.slots.(i).cancel

let exec_started t i =
  let s = t.slots.(i) in
  (* A deadline tripped in the dying moments of the previous execution must
     not poison this one. *)
  Atomic.set s.cancel false;
  Atomic.set s.start (Unix.gettimeofday ())

let exec_finished t i = Atomic.set t.slots.(i).start neg_infinity

let take_shed t i = Atomic.compare_and_set t.slots.(i).shed true false

let fire t reason =
  if Atomic.compare_and_set t.stop_fired false true then t.on_stop reason

let heap_bytes () = (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)

let deadlines t ~now =
  (match t.wall_deadline with Some d when now >= d -> fire t Wall_budget | _ -> ());
  match t.tick_deadline with Some d when now >= d -> fire t Tick | _ -> ()

(* The monitor thread runs only when the exploring domain gives up the
   runtime lock, which a busy replay loop does at the runtime's ~50 ms
   tick, so workers read the clock themselves between replays. *)
let check_deadlines t =
  match (t.wall_deadline, t.tick_deadline) with
  | None, None -> ()
  | _ -> deadlines t ~now:(Unix.gettimeofday ())

let poll t ~now =
  if Atomic.get t.interrupt then fire t Interrupt;
  deadlines t ~now;
  (match t.step_deadline with
  | Some deadline ->
      Array.iter
        (fun s ->
          let started = Atomic.get s.start in
          if started > neg_infinity && now -. started >= deadline then Atomic.set s.cancel true)
        t.slots
  | None -> ());
  match t.mem_budget with
  | Some budget ->
      if Atomic.get t.mem_armed then begin
        if heap_bytes () >= budget then begin
          (* Disarm until the heap drops back below 90% of the budget, so a
             slowly-collecting heap sheds once, not on every sample. *)
          Atomic.set t.mem_armed false;
          Array.iter (fun s -> Atomic.set s.shed true) t.slots
        end
      end
      else if float_of_int (heap_bytes ()) < 0.9 *. float_of_int budget then
        Atomic.set t.mem_armed true
  | None -> ()

let period t ~now =
  (* Deadlines want responsive sampling; a bare mem budget can be lazier.
     Absolute deadlines scale the period to the time actually remaining — a
     budget smaller than a fixed poll period would otherwise never fire
     before the run completes (the replay path finishes whole test
     workloads in single-digit milliseconds). *)
  let of_deadline d = Float.max 0.001 (Float.min 0.05 (d /. 4.)) in
  let of_abs d = Float.max 0.0002 (Float.min 0.01 ((d -. now) /. 4.)) in
  let candidates =
    (match t.step_deadline with Some d -> [ of_deadline d ] | None -> [])
    @ (match t.wall_deadline with Some d -> [ of_abs d ] | None -> [])
    @ (match t.tick_deadline with Some d -> [ of_abs d ] | None -> [])
    @ if t.mem_budget <> None then [ 0.05 ] else []
  in
  List.fold_left Float.min 0.05 candidates

(* With no knob set there is nothing only a thread can notice — workers poll
   the interrupt flag themselves between replays — so plain runs spawn no
   thread at all. *)
let needed t =
  t.wall_deadline <> None || t.tick_deadline <> None || t.step_deadline <> None
  || t.mem_budget <> None

let start t =
  if needed t && t.thread = None then
    let dt = period t ~now:(Unix.gettimeofday ()) in
    t.thread <-
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get t.quit) do
               Thread.delay dt;
               (* Keep polling after a stop fired: step-deadline duty must
                  continue while workers finish their current replays, and
                  so must interrupt detection. [fire] is once-only anyway. *)
               poll t ~now:(Unix.gettimeofday ())
             done)
           ())

let shutdown t =
  Atomic.set t.quit true;
  match t.thread with
  | Some th ->
      Thread.join th;
      t.thread <- None
  | None -> ()
