(* Random persistent-memory programs for the whole-program properties: one
   instruction type, one generator parameterised by the shape a property
   draws, one shrinker, one interpreter onto [Ctx], one observer, and a
   printer in litmus syntax (one line per thread) that serves both as the
   QCheck counterexample and as the store labels. A program is one op list
   per thread. *)

open Jaaru

type op =
  | Store of int * int * int * int  (* line, byte offset, width, value *)
  | Rmw of int * int * int  (* locked fetch-add: line, byte offset, delta *)
  | Load_store of int * int * int
      (* line, byte offset, width: load, then store the value plus one back *)
  | Load of int * int  (* line, byte offset: a 64-bit load, value dropped *)
  | Flush of int
  | Flushopt of int
  | Clwb of int
  | Sfence
  | Mfence
  | Crash  (* an explicit power failure, [Ctx.crash] *)

type weights = {
  store : int;  (* 64-bit stores *)
  rmw : int;
  flush : int;
  flushopt : int;
  clwb : int;
  sfence : int;
  narrow : int;  (* 8-, 16- and 32-bit stores *)
  load_store : int;
  mfence : int;
  crash : int;
}

type shape = {
  lines : int;  (* cache lines the accesses span *)
  span : int;
      (* bytes of each line the accesses touch, a multiple of 8; the
         observer reads each of its words *)
  word_values : int;  (* a 64-bit store writes 1 .. word_values *)
  narrow_values : int list;
      (* what narrow stores write: values may be negative or wider than the
         access *)
  weights : weights;
  threads : (int * int) list;  (* the op-count range of each thread *)
}

(* The equivalence properties' programs: three lines, two words each, one
   thread of up to eight ops. *)
let sequential =
  {
    lines = 3;
    span = 16;
    word_values = 7;
    narrow_values = [ 1; 2; 3; -1; 0x10_0000_0002 ];
    weights =
      {
        store = 5;
        rmw = 2;
        flush = 2;
        flushopt = 2;
        clwb = 1;
        sfence = 1;
        narrow = 2;
        load_store = 2;
        mfence = 0;
        crash = 0;
      };
    threads = [ (1, 8) ];
  }

let op_gen s =
  let open QCheck.Gen in
  let line = int_range 0 (s.lines - 1) and word = int_range 0 ((s.span / 8) - 1) in
  (* Narrow accesses at any byte offset inside the span, so that they
     straddle words and overlap wider stores: buffered loads then take both
     the covering and the byte-wise forwarding path. *)
  let narrow k =
    line >>= fun l -> oneofl [ 1; 2; 4 ] >>= fun w -> int_range 0 (s.span - w) >>= fun b -> k l b w
  in
  let w = s.weights in
  frequency
    [
      ( w.store,
        map3 (fun l o v -> Store (l, 8 * o, 8, v + 1)) line word (int_range 0 (s.word_values - 1)) );
      (w.rmw, map3 (fun l o d -> Rmw (l, 8 * o, d + 1)) line word (int_range 0 2));
      (w.flush, map (fun l -> Flush l) line);
      (w.flushopt, map (fun l -> Flushopt l) line);
      (w.clwb, map (fun l -> Clwb l) line);
      (w.sfence, return Sfence);
      (w.narrow, narrow (fun l b w -> map (fun v -> Store (l, b, w, v)) (oneofl s.narrow_values)));
      (w.load_store, narrow (fun l b w -> return (Load_store (l, b, w))));
      (w.mfence, return Mfence);
      (w.crash, return Crash);
    ]

let gen s =
  QCheck.Gen.flatten_l
    (List.map (fun (lo, hi) -> QCheck.Gen.(list_size (int_range lo hi) (op_gen s))) s.threads)

let pp_op = function
  | Store (l, b, 8, v) -> Printf.sprintf "st l%d+%d=%d" l b v
  | Store (l, b, w, v) -> Printf.sprintf "st%d l%d+%d=%d" (8 * w) l b v
  | Rmw (l, b, d) -> Printf.sprintf "faa l%d+%d+=%d" l b d
  | Load_store (l, b, w) -> Printf.sprintf "ld%d+1 l%d+%d" (8 * w) l b
  | Load (l, b) -> Printf.sprintf "ld l%d+%d" l b
  | Flush l -> Printf.sprintf "clflush l%d" l
  | Flushopt l -> Printf.sprintf "clflushopt l%d" l
  | Clwb l -> Printf.sprintf "clwb l%d" l
  | Sfence -> "sfence"
  | Mfence -> "mfence"
  | Crash -> "crash"

let print prog =
  String.concat "\n"
    (List.mapi
       (fun i ops -> Printf.sprintf "P%d: %s" i (String.concat "; " (List.map pp_op ops)))
       prog)

(* Per-op shrinker: every candidate strictly decreases (kind rank, fields)
   lexicographically — RMWs and narrow stores simplify to a 64-bit store,
   load-then-store to a narrow store, the weakly ordered flush kinds
   collapse toward clflush, mfence to sfence, and all indices shrink toward
   0 — so QCheck's list shrinker drives failures to a minimal
   counterexample. *)
let shrink_op op yield =
  match op with
  | Store (l, b, 8, v) ->
      if v > 1 then yield (Store (l, b, 8, 1));
      if l > 0 then yield (Store (0, b, 8, v));
      if b > 0 then yield (Store (l, 0, 8, v))
  | Store (l, b, w, v) ->
      yield (Store (l, b / 8 * 8, 8, 1));
      if v <> 1 then yield (Store (l, b, w, 1));
      if l > 0 then yield (Store (0, b, w, v));
      if b > 0 then yield (Store (l, 0, w, v));
      if w > 1 then yield (Store (l, b, 1, v))
  | Rmw (l, b, d) ->
      yield (Store (l, b, 8, d));
      if d > 1 then yield (Rmw (l, b, 1));
      if l > 0 then yield (Rmw (0, b, d));
      if b > 0 then yield (Rmw (l, 0, d))
  | Load_store (l, b, w) ->
      yield (Store (l, b, w, 1));
      if l > 0 then yield (Load_store (0, b, w));
      if b > 0 then yield (Load_store (l, 0, w));
      if w > 1 then yield (Load_store (l, b, 1))
  | Flush l -> if l > 0 then yield (Flush 0)
  | Flushopt l ->
      yield (Flush l);
      if l > 0 then yield (Flushopt 0)
  | Clwb l ->
      yield (Flushopt l);
      if l > 0 then yield (Clwb 0)
  | Mfence -> yield Sfence
  | Load _ | Sfence | Crash -> ()

let shrink = QCheck.Shrink.list ~shrink:(QCheck.Shrink.list ~shrink:shrink_op)
let arb s = QCheck.make ~print ~shrink (gen s)

(* [map_lines f op] is [op] with the line [l] it names moved to [f l]. *)
let map_lines f = function
  | Store (l, b, w, v) -> Store (f l, b, w, v)
  | Rmw (l, b, d) -> Rmw (f l, b, d)
  | Load_store (l, b, w) -> Load_store (f l, b, w)
  | Load (l, b) -> Load (f l, b)
  | Flush l -> Flush (f l)
  | Flushopt l -> Flushopt (f l)
  | Clwb l -> Clwb (f l)
  | (Sfence | Mfence | Crash) as op -> op

let addr line off = 0x1000 + (64 * line) + off

let run_thread ctx ops =
  List.iter
    (fun op ->
      let label = pp_op op in
      match op with
      | Store (l, b, w, v) -> Ctx.store ctx ~label ~width:w (addr l b) v
      | Rmw (l, b, d) -> ignore (Ctx.fetch_add64 ctx ~label (addr l b) d)
      | Load_store (l, b, w) ->
          let a = addr l b in
          Ctx.store ctx ~label ~width:w a (Ctx.load ctx ~label ~width:w a + 1)
      | Load (l, b) -> ignore (Ctx.load64 ctx ~label (addr l b))
      | Flush l -> Ctx.clflush ctx ~label (addr l 0) 8
      | Flushopt l -> Ctx.clflushopt ctx ~label (addr l 0) 8
      | Clwb l -> Ctx.clwb ctx ~label (addr l 0) 8
      | Sfence -> Ctx.sfence ctx ~label ()
      | Mfence -> Ctx.mfence ctx ~label ()
      | Crash -> Ctx.crash ctx)
    ops

(* Threads with no ops are left out. One thread runs as it is; several run
   under the deterministic round-robin scheduler, each with its own store
   and flush buffer. *)
let run ctx prog =
  match List.filter (( <> ) []) prog with
  | [] -> ()
  | [ ops ] -> run_thread ctx ops
  | threads -> Ctx.parallel ctx (List.map (fun ops ctx -> run_thread ctx ops) threads)

(* Every word of the shape's span on every line, as "v,v,...". *)
let observe s ctx =
  String.concat ","
    (List.concat_map
       (fun l ->
         List.init (s.span / 8) (fun w ->
             string_of_int (Ctx.load64 ctx ~label:"obs" (addr l (8 * w)))))
       (List.init s.lines Fun.id))
