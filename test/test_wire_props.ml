(* Property tests for the replay engine's data plane:

   - the bounded trace ring (Trace) replays the boxed Analysis.Event stream
     it is fed, keeping exactly the newest suffix;
   - the hand-rolled structural serializer (Pmem.Wire) round-trips its
     primitives, and its primitive encodings are injective. *)

open Jaaru
module Event = Analysis.Event
module Wire = Pmem.Wire

(* --- generators --------------------------------------------------------------- *)

(* Labels: a small pool (so events repeat) plus arbitrary strings,
   including the empty string and non-ASCII bytes. *)
let label_gen =
  QCheck.Gen.(
    frequency
      [
        (4, oneofl [ "a"; "b"; "load"; "store 1"; "btree_map.ml:89"; "" ]);
        (1, string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12));
      ])

(* Values: small ints plus the sign and sentinel edges a 63-bit slot must
   carry through unchanged. *)
let value_gen =
  QCheck.Gen.(frequency [ (6, int_range (-1000) 1000); (1, oneofl [ min_int; max_int; -1 ]) ])

let event_gen =
  QCheck.Gen.(
    let* tid = int_range 0 4 in
    let* label = label_gen in
    let* addr = int_range 0 0xffff in
    let* width = int_range 1 8 in
    frequency
      [
        ( 4,
          let* value = value_gen in
          return (Event.Store { addr; width; value; tid; label }) );
        ( 4,
          let* value = value_gen in
          return (Event.Load { addr; width; value; tid; label }) );
        ( 2,
          let* old_value = value_gen in
          let* new_value = opt value_gen in
          return (Event.Rmw { addr; width; old_value; new_value; tid; label }) );
        ( 2,
          let* kind = oneofl [ Event.Clflush; Event.Clflushopt; Event.Clwb ] in
          return (Event.Flush { line_addr = addr land lnot 63; kind; tid; label }) );
        ( 2,
          let* kind = oneofl [ Event.Sfence; Event.Mfence ] in
          return (Event.Fence { kind; tid; label }) );
        ( 1,
          let* parent = int_range 0 4 in
          return (Event.Thread_start { tid; parent; label }) );
        ( 1,
          let* parent = int_range 0 4 in
          return (Event.Thread_join { tid; parent; label }) );
        (1, return (Event.Failure_point { label; tid }));
        ( 1,
          let* l = opt (return label) in
          return (Event.Crash { label = l; tid }) );
        (1, return Event.End_execution);
      ])

let events_gen = QCheck.Gen.(list_size (int_range 0 20) event_gen)
let events_print evs = String.concat "; " (List.map Event.render evs)
let events_arb = QCheck.make ~print:events_print events_gen

(* --- trace ring ------------------------------------------------------------------ *)

(* Ring-level inverse: a Trace deep enough to hold everything replays the
   boxed stream unchanged; a shallower one keeps exactly the newest suffix
   and counts the rest as dropped. *)
let prop_trace_roundtrip =
  QCheck.Test.make ~name:"trace ring replays the boxed event stream" ~count:1000
    (QCheck.pair events_arb QCheck.small_nat) (fun (evs, extra) ->
      let n = List.length evs in
      let full = Trace.create ~depth:(max 1 (n + extra)) in
      List.iter (Trace.add full) evs;
      let depth = max 1 (n / 2) in
      let ring = Trace.create ~depth in
      List.iter (Trace.add ring) evs;
      let suffix l k =
        let rec drop l k = if k <= 0 then l else match l with [] -> [] | _ :: t -> drop t (k - 1) in
        drop l (List.length l - k)
      in
      Trace.events full = evs
      && Trace.dropped full = 0
      && Trace.events ring = suffix evs depth
      && Trace.dropped ring = max 0 (n - depth))

(* --- wire primitives ------------------------------------------------------------ *)

type prim =
  | Pint of int
  | Pbool of bool
  | Pfloat of float
  | Pstring of string
  | Popt of int option
  | Plist of int list

let prim_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Pint i) value_gen);
        (1, map (fun b -> Pbool b) bool);
        (* Finite floats only: NaN breaks structural equality on both sides
           of the comparison, not just ours. *)
        (2, map (fun f -> Pfloat f) (float_range (-1e12) 1e12));
        (2, map (fun s -> Pstring s) (string_size ~gen:printable (int_range 0 16)));
        (1, map (fun o -> Popt o) (opt value_gen));
        (2, map (fun l -> Plist l) (list_size (int_range 0 8) value_gen));
      ])

let prims_print ps =
  String.concat ";"
    (List.map
       (function
         | Pint i -> Printf.sprintf "i%d" i
         | Pbool b -> Printf.sprintf "b%b" b
         | Pfloat f -> Printf.sprintf "f%h" f
         | Pstring s -> Printf.sprintf "s%S" s
         | Popt o -> ( match o with None -> "none" | Some i -> Printf.sprintf "some%d" i)
         | Plist l -> "[" ^ String.concat "," (List.map string_of_int l) ^ "]")
       ps)

let prims_arb = QCheck.make ~print:prims_print QCheck.Gen.(list_size (int_range 0 12) prim_gen)

let wr_prim b = function
  | Pint i -> Wire.int b i
  | Pbool x -> Wire.bool b x
  | Pfloat f -> Wire.float b f
  | Pstring s -> Wire.string b s
  | Popt o -> Wire.option Wire.int b o
  | Plist l -> Wire.list Wire.int b l

(* Readback is driven by the original shape: the format is not
   self-describing, exactly like the checkpoint codecs that consume it. *)
let rd_prim s = function
  | Pint _ -> Pint (Wire.rd_int s)
  | Pbool _ -> Pbool (Wire.rd_bool s)
  | Pfloat _ -> Pfloat (Wire.rd_float s)
  | Pstring _ -> Pstring (Wire.rd_string s)
  | Popt _ -> Popt (Wire.rd_option Wire.rd_int s)
  | Plist _ -> Plist (Wire.rd_list Wire.rd_int s)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire primitives round-trip" ~count:1000 prims_arb (fun ps ->
      let b = Wire.sink () in
      List.iter (wr_prim b) ps;
      let s = Wire.src (Wire.contents b) in
      let back = List.map (rd_prim s) ps in
      Wire.expect_end s;
      back = ps)

(* The format is not self-describing — [Plist []] and [Pbool false] are
   both one zero byte — so sequences of different shapes may collide. Each
   element is prefixed with its constructor, as a codec's fixed schema
   would imply, and the property checks that every primitive encoding is
   injective and self-delimiting. *)
let prim_tag = function
  | Pint _ -> 0
  | Pbool _ -> 1
  | Pfloat _ -> 2
  | Pstring _ -> 3
  | Popt _ -> 4
  | Plist _ -> 5

let prop_wire_injective =
  QCheck.Test.make ~name:"wire primitive encoding injective" ~count:1000
    (QCheck.pair prims_arb prims_arb) (fun (a, b) ->
      let enc ps =
        let s = Wire.sink () in
        List.iter
          (fun p ->
            Wire.int s (prim_tag p);
            wr_prim s p)
          ps;
        Wire.contents s
      in
      String.equal (enc a) (enc b) = (a = b))

let () =
  Alcotest.run "wire-props"
    [
      ("trace", [ QCheck_alcotest.to_alcotest prop_trace_roundtrip ]);
      ( "serializer",
        [
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_wire_injective;
        ] );
    ]
