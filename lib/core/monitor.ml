(* The limits an exploration enforces on itself, checked by each worker at
   its replay boundaries. No thread: a busy replay loop hands the runtime
   lock to a background thread only at the ~50 ms runtime tick, so the
   worker's own checks are the prompt ones. See monitor.mli. *)

type reason = Interrupt | Wall_budget | Tick

type t = {
  interrupt : bool Atomic.t;
  wall_deadline : float option;
  tick_deadline : float option;
  mem_budget : int option;
  mutable mem_armed : bool;
  mutable next_sample : float;
}

let create ~interrupt ?wall_deadline ?tick_deadline ?mem_budget () =
  {
    interrupt;
    wall_deadline;
    tick_deadline;
    mem_budget;
    mem_armed = true;
    next_sample = neg_infinity;
  }

let past deadline now = match deadline with Some d -> now >= d | None -> false

let stop_reason t ~now =
  if Atomic.get t.interrupt then Some Interrupt
  else
    match (t.wall_deadline, t.tick_deadline) with
    | None, None -> None
    | wall, tick ->
        let now = now () in
        if past wall now then Some Wall_budget else if past tick now then Some Tick else None

let heap_bytes () = (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)

(* [Gc.quick_stat] costs ~1.5 µs, a tenth of a short replay, so the heap is
   sampled at most once per period of the worker's own clock. *)
let sample_period = 0.05

let shed t ~now ~heap =
  match t.mem_budget with
  | None -> false
  | Some budget ->
      let now = now () in
      if now < t.next_sample then false
      else begin
        t.next_sample <- now +. sample_period;
        let bytes = heap () in
        if t.mem_armed then begin
          (* Disarm until the heap drops back below 90% of the budget, so a
             slowly-collecting heap sheds once, not on every sample. *)
          t.mem_armed <- bytes < budget;
          not t.mem_armed
        end
        else begin
          t.mem_armed <- float_of_int bytes < 0.9 *. float_of_int budget;
          false
        end
      end
