(* A buffered crash's drained master: a private, unbounded copy of the
   snapshot's top record on top of its buried records, private copies of its
   threads, and [evicted.(i)], the entries thread [i] has evicted so far.
   Restores bring it forward and take views of it. *)
type master = {
  stack : Exec.Exec_stack.t;
  threads : Tso.Thread_state.t list;
  evicted : int array;
}

type t = {
  point : Choice.point;
  stack : Exec.Exec_record.t list;  (* top-first bounded views; never mutated *)
  seq : int;
  threads : Tso.Thread_state.t list;
  trace : Trace.t;
  failure_count : int;
  fp_count : int;
  rng : int;
  last : string;
  crash_label : string option;
  mutable master : master option;
}

(* One slot per point depth. A replay passes through one point per depth,
   so a new capture at a depth displaces a point the search has left or
   will reach later; either way the cost is one full replay, as for an
   eviction. [top] bounds the occupied slots from above, so [find] does not
   scan the empty tail. *)
type cache = { mutable slots : t option array; mutable count : int; mutable top : int }

let max_cached = 256

let create_cache () = { slots = [||]; count = 0; top = -1 }

let mem cache point =
  let d = Choice.point_depth point in
  d <= cache.top
  && match cache.slots.(d) with Some s -> Choice.same_point s.point point | None -> false

(* Every record in a snapshot is a bounded view (Exec_record.snapshot_view):
   line intervals copied — the recovery read-from analysis refines them in
   place even on buried records — line logs shared with the capturing
   execution, entries newer than the capture hidden behind the view's seq
   bound. The top record is the one the crashing execution keeps writing
   into, so its view is bounded at the capture-time sequence number; buried
   records keep whatever bound they carry (restored replays can themselves
   be captured, and a restored top is a view of a master that later
   restores append to). The initial image is immutable and shared
   outright. *)
let capture ~point ~stack ~threads ~trace ~failure_count ~fp_count ~rng ~last
    ~crash_label =
  let seq = Exec.Exec_stack.cur_seq stack in
  let stack =
    List.mapi
      (fun i e ->
        if Exec.Exec_record.is_initial e then e
        else if i = 0 then Exec.Exec_record.snapshot_view ~bound:seq e
        else Exec.Exec_record.snapshot_view e)
      (Exec.Exec_stack.to_list stack)
  in
  {
    point;
    stack;
    seq;
    threads = List.map Tso.Thread_state.copy threads;
    trace = Trace.copy trace;
    failure_count;
    fp_count;
    rng;
    last;
    crash_label;
    master = None;
  }

let view e = if Exec.Exec_record.is_initial e then e else Exec.Exec_record.snapshot_view e

let fresh_master snap =
  {
    stack =
      Exec.Exec_stack.of_records ~seq:snap.seq
        (Exec.Exec_record.snapshot_freeze (List.hd snap.stack) :: List.tl snap.stack);
    threads = List.map Tso.Thread_state.copy snap.threads;
    evicted = Array.make (List.length snap.threads) 0;
  }

(* Evictions are stamped in thread order, so the master can reach [keep] by
   evicting more only if no thread is past its target and no thread after
   the first one that must move has evicted anything. *)
let reusable evicted keep =
  let rec go i moved =
    i = Array.length keep
    || (evicted.(i) <= keep.(i)
       && (not (moved && evicted.(i) > 0))
       && go (i + 1) (moved || evicted.(i) < keep.(i)))
  in
  go 0 false

(* Per-restore copies are views (fresh line intervals, shared logs). With
   nothing evicted they are views of the snapshot itself; otherwise the top
   is a view of the master, bounded at its sequence counter, so entries a
   later restore evicts into the master stay hidden from this one. *)
let materialize snap ~keep =
  if Array.for_all (fun k -> k = 0) keep then (List.map view snap.stack, snap.seq)
  else begin
    let m =
      match snap.master with
      | Some m when reusable m.evicted keep -> m
      | _ ->
          let m = fresh_master snap in
          snap.master <- Some m;
          m
    in
    Tso.Thread_state.evict_prefixes m.threads m.stack ~evicted:m.evicted ~keep;
    let seq = Exec.Exec_stack.cur_seq m.stack in
    let top = Exec.Exec_record.snapshot_view ~bound:seq (Exec.Exec_stack.top m.stack) in
    (top :: List.map view (List.tl snap.stack), seq)
  end

let drop cache d =
  cache.slots.(d) <- None;
  cache.count <- cache.count - 1

let store cache snap =
  let d = Choice.point_depth snap.point in
  let cap = Array.length cache.slots in
  if d >= cap then begin
    let slots = Array.make (max (d + 1) (max 16 (2 * cap))) None in
    Array.blit cache.slots 0 slots 0 cap;
    cache.slots <- slots
  end;
  if Option.is_none cache.slots.(d) then cache.count <- cache.count + 1;
  cache.slots.(d) <- Some snap;
  cache.top <- max cache.top d;
  (* Evict the shallowest entry: it is the cheapest to recompute and skips
     the least replay work per hit. *)
  if cache.count > max_cached then begin
    let rec shallowest i = if Option.is_none cache.slots.(i) then shallowest (i + 1) else i in
    drop cache (shallowest 0)
  end

(* The deepest point the replay passes through skips the most pre-failure
   work. On the way down, [find] drops the snapshots of points no later
   replay can reach, so each is scanned at most once more. *)
let find cache choice =
  let rec scan d =
    if d < 0 then None
    else
      match cache.slots.(d) with
      | None -> scan (d - 1)
      | Some s -> (
          match Choice.status choice s.point with
          | `On_path -> Some s
          | `Ahead -> scan (d - 1)
          | `Dead ->
              drop cache d;
              scan (d - 1))
  in
  let found = scan cache.top in
  while cache.top >= 0 && Option.is_none cache.slots.(cache.top) do
    cache.top <- cache.top - 1
  done;
  found

let clear_cache cache =
  Array.fill cache.slots 0 (Array.length cache.slots) None;
  cache.count <- 0;
  cache.top <- -1
