(* In-memory span recording for the traced in-library runs.

   A span is a name, a start and end time, the span that caused it, and the
   case or structure it belongs to. Each domain appends to its own buffer of
   unboxed columns, so recording allocates nothing per span and the jobs=2
   runs never contend on a lock; the buffers are read only after the run
   (and its domains) finished. Names and items are interned when a wrapper
   is built, not per span. *)

type buf = {
  slot : int;
  mutable len : int;
  mutable name : int array;
  mutable item : int array;
  mutable parent : int array;
  mutable start : Float.Array.t;
  mutable stop : Float.Array.t;
}

let lock = Mutex.create ()
let buffers : buf list ref = ref []
let strings : (string, int) Hashtbl.t = Hashtbl.create 64
let string_of_id : string array ref = ref [||]

let intern s =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt strings s with
      | Some i -> i
      | None ->
          let i = Hashtbl.length strings in
          Hashtbl.add strings s i;
          string_of_id := Array.append !string_of_id [| s |];
          i)

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect lock (fun () ->
          let b =
            {
              slot = List.length !buffers;
              len = 0;
              name = [||];
              item = [||];
              parent = [||];
              start = Float.Array.create 0;
              stop = Float.Array.create 0;
            }
          in
          buffers := b :: !buffers;
          b))

let grow b =
  let cap = max 1024 (2 * b.len) in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a =
    let a' = Float.Array.create cap in
    Float.Array.blit a 0 a' 0 b.len;
    a'
  in
  b.name <- ints b.name;
  b.item <- ints b.item;
  b.parent <- ints b.parent;
  b.start <- floats b.start;
  b.stop <- floats b.stop

let root = -1

(** Opens a span on the calling domain and returns its id. *)
let open_ ~name ~item ~parent =
  let b = Domain.DLS.get key in
  if b.len = Array.length b.name then grow b;
  let i = b.len in
  b.name.(i) <- name;
  b.item.(i) <- item;
  b.parent.(i) <- parent;
  Float.Array.unsafe_set b.stop i nan;
  b.len <- i + 1;
  Float.Array.unsafe_set b.start i (Unix.gettimeofday ());
  (b.slot lsl 32) lor i

(** Closes a span opened on the calling domain. *)
let close id =
  let t = Unix.gettimeofday () in
  let b = Domain.DLS.get key in
  Float.Array.set b.stop (id land 0xffffffff) t

(** Records a span whose bounds were taken elsewhere (a phase boundary
    reported through a callback). *)
let add ~name ~item ~parent start stop =
  let id = open_ ~name ~item ~parent in
  let b = Domain.DLS.get key in
  Float.Array.set b.start (id land 0xffffffff) start;
  Float.Array.set b.stop (id land 0xffffffff) stop;
  id

(* Exceptions — the explorer's Ctx.Power_failure and Bug.Found among them —
   close the span and propagate unchanged. *)
let within ~name ~item ~parent f =
  let id = open_ ~name ~item ~parent in
  match f () with
  | v ->
      close id;
      v
  | exception e ->
      close id;
      raise e

type span = {
  id : int;
  name : string;
  item : string;
  parent : int;
  start : float;
  stop : float;
  domain : int;
}

let all () =
  List.concat_map
    (fun b ->
      List.init b.len (fun i ->
          {
            id = (b.slot lsl 32) lor i;
            name = !string_of_id.(b.name.(i));
            item = !string_of_id.(b.item.(i));
            parent = b.parent.(i);
            start = Float.Array.get b.start i;
            stop = Float.Array.get b.stop i;
            domain = b.slot;
          }))
    (Mutex.protect lock (fun () -> !buffers))

let reset () = Mutex.protect lock (fun () -> List.iter (fun b -> b.len <- 0) !buffers)

let to_json ~workload s =
  Json.Obj
    [
      ("id", Json.int s.id);
      ("name", Json.Str s.name);
      ("start", Json.Num s.start);
      ("end", Json.Num s.stop);
      ("parent", Json.int s.parent);
      ("workload", Json.Str workload);
      ("item", Json.Str s.item);
      ("domain", Json.int s.domain);
    ]

let append_jsonl ~path ~workload spans =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Json.to_string (to_json ~workload s));
          output_char oc '\n')
        spans)

(* Seconds one recorded span costs, as the median of timed batches of empty
   spans. Spans recorded so far are discarded: call it after writing them. *)
let cost () =
  let name = intern "calibration" and n = 100_000 in
  let batch () =
    reset ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      within ~name ~item:name ~parent:root ignore
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let batches = List.sort Float.compare (List.init 5 (fun _ -> batch ())) in
  reset ();
  List.nth batches 2

let duration s = s.stop -. s.start

(* Per span name: how many, total time, and self time — the span's duration
   minus the durations of the spans it caused. Under jobs=2 the children of
   one span run on two domains, so self time is counted in domain-seconds. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> root then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, total, self = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name) in
      let own = duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      Hashtbl.replace by_name s.name (n + 1, total +. duration s, self +. own))
    spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name [] |> List.sort compare

(* The explorer layer from the spans the scenario wrappers recorded:
   explorer.run spans with explorer.pre / explorer.post children. [jobs]
   scales the run time to domain-seconds, so that with jobs=2 the identity
   run = setup + pre + post + self still holds. *)
let explorer ~jobs spans =
  let first_child = Hashtbl.create 64 in
  let sum name =
    List.fold_left
      (fun (n, t) s -> if s.name = name then (n + 1, t +. duration s) else (n, t))
      (0, 0.) spans
  in
  List.iter
    (fun s ->
      if s.name = "explorer.pre" || s.name = "explorer.post" then
        match Hashtbl.find_opt first_child s.parent with
        | Some t when t <= s.start -> ()
        | _ -> Hashtbl.replace first_child s.parent s.start)
    spans;
  let runs = List.filter (fun s -> s.name = "explorer.run") spans in
  let run_s = float_of_int jobs *. List.fold_left (fun a s -> a +. duration s) 0. runs in
  let setup_s =
    List.fold_left
      (fun a s ->
        match Hashtbl.find_opt first_child s.id with Some t -> a +. (t -. s.start) | None -> a)
      0. runs
  in
  let pre_calls, pre_s = sum "explorer.pre" and post_calls, post_s = sum "explorer.post" in
  let self_s = run_s -. setup_s -. pre_s -. post_s in
  [
    ("run_s", run_s);
    ("setup_s", setup_s);
    ("pre_s", pre_s);
    ("pre_calls", float_of_int pre_calls);
    ("post_s", post_s);
    ("post_calls", float_of_int post_calls);
    ("self_s", self_s);
    ("self_share", if run_s > 0. then self_s /. run_s else 0.);
  ]
