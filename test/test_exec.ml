(* Unit tests for execution records and the Fig. 9/10 read-from analysis. *)

module R = Exec.Exec_record

(* A one-byte store labelled after its seq. *)
let push e addr value seq =
  R.push_store e addr ~width:1 ~value ~seq ~label:(Printf.sprintf "s%d" seq)

(* The candidate values of a byte load through a fresh view, newest first:
   [read]'s value when the byte has one candidate (which [read] commits),
   else its [candidates]. *)
let may_read s addr =
  let v = Exec.Read_from.view s in
  Exec.Read_from.open_line v (Pmem.Addr.line_of addr);
  match Exec.Read_from.read v (Pmem.Addr.line_offset addr) with
  | -1 -> List.map (fun src -> src.Exec.Read_from.value) (Exec.Read_from.candidates v)
  | b -> [ b ]

(* Commits a byte load to its [k]-th candidate, newest first. *)
let commit_nth s addr k =
  let v = Exec.Read_from.view s in
  Exec.Read_from.open_line v (Pmem.Addr.line_of addr);
  let off = Pmem.Addr.line_offset addr in
  if Exec.Read_from.read v off = -1 then
    Exec.Read_from.commit v off (List.nth (Exec.Read_from.candidates v) k)

(* One byte stored thrice among stores to the rest of its line: the byte's
   projection, and the line log's seq search. *)
let test_log_basics () =
  let e = R.create ~id:1 in
  Alcotest.(check int) "empty" 0 (List.length (R.visible_stores e 100));
  push e 100 1 5;
  R.push_store e 96 ~width:4 ~value:0x01020304 ~seq:7 ~label:"other bytes";
  push e 100 2 9;
  push e 100 3 12;
  let stores = R.visible_stores e 100 in
  let nth i = List.nth stores i in
  Alcotest.(check int) "length" 3 (List.length stores);
  Alcotest.(check int) "first" 1 (nth 0).value;
  Alcotest.(check int) "last" 3 (nth (List.length stores - 1)).value;
  Alcotest.(check int) "get" 2 (nth 1).value;
  Alcotest.(check int) "seq_at" 9 (nth 1).seq;
  Alcotest.(check string) "label_at" "s9" (nth 1).label;
  Alcotest.check_raises "non-monotone push"
    (Invalid_argument "Exec_record.push_store: sequence numbers must increase") (fun () ->
      push e 100 4 12);
  Alcotest.check_raises "non-monotone push to another byte of the line"
    (Invalid_argument "Exec_record.push_store: sequence numbers must increase") (fun () ->
      push e 101 4 12);
  let log = R.slot_log e (R.line_slot e (Pmem.Addr.line_of 100)) in
  Alcotest.(check int) "one entry per store" 4 log.len;
  Alcotest.(check int) "count_le before all" 0 (R.count_le log 4);
  Alcotest.(check int) "count_le at the first" 1 (R.count_le log 5);
  Alcotest.(check int) "count_le between" 2 (R.count_le log 8);
  Alcotest.(check int) "count_le at the last" 4 (R.count_le log 12);
  Alcotest.(check int) "count_le past" 4 (R.count_le log 99)

let test_next_seq_after () =
  let e = R.create ~id:1 in
  (* Seqs 5, 9, 12 and 20 to the byte, among stores to its neighbours, which
     are not the byte's. *)
  List.iter
    (fun (addr, s) -> push e addr s s)
    [ (100, 5); (101, 7); (100, 9); (100, 12); (101, 15); (100, 20) ];
  R.push_store e 96 ~width:4 ~value:0 ~seq:21 ~label:"other bytes";
  Alcotest.(check int) "before all" 5 (R.next_store_seq_after e 100 0);
  Alcotest.(check int) "at 5" 9 (R.next_store_seq_after e 100 5);
  Alcotest.(check int) "between" 12 (R.next_store_seq_after e 100 10);
  Alcotest.(check int) "at last" Pmem.Line_table.infinity (R.next_store_seq_after e 100 20);
  Alcotest.(check int) "past" Pmem.Line_table.infinity (R.next_store_seq_after e 100 99)

let prop_next_seq_after =
  QCheck.Test.make ~name:"next_seq_after = first strictly greater" ~count:300
    QCheck.(pair (list_of_size (Gen.int_range 1 20) (int_range 1 100)) (int_range 0 110))
    (fun (seqs, s) ->
      let seqs = List.sort_uniq compare seqs in
      let e = R.create ~id:1 in
      List.iter (fun x -> push e 100 x x) seqs;
      let expected =
        match List.filter (fun x -> x > s) seqs with
        | [] -> Pmem.Line_table.infinity
        | x :: _ -> x
      in
      R.next_store_seq_after e 100 s = expected)

let test_exec_record () =
  let e = Exec.Exec_record.create ~id:1 in
  Alcotest.(check bool) "not initial" false (Exec.Exec_record.is_initial e);
  Exec.Exec_record.push_store e 100 ~width:1 ~value:7 ~seq:1 ~label:"a";
  Exec.Exec_record.push_store e 100 ~width:1 ~value:8 ~seq:2 ~label:"b";
  Exec.Exec_record.push_store e 200 ~width:1 ~value:9 ~seq:3 ~label:"c";
  Alcotest.(check int) "store count" 3 (Exec.Exec_record.store_count e);
  Alcotest.(check int) "queue length" 2 (List.length (Exec.Exec_record.visible_stores e 100));
  Alcotest.(check bool) "no queue for untouched" true
    (Exec.Exec_record.visible_stores e 300 = []);
  (* Stores above the line's last-writeback lower bound are not certainly
     persisted. *)
  let unflushed addr =
    let lo = Exec.Exec_record.line_lo e addr in
    List.length
      (List.filter (fun (st : R.byte_store) -> st.seq > lo) (R.visible_stores e addr))
  in
  Alcotest.(check int) "unflushed before flush" 2 (unflushed 100);
  Exec.Exec_record.flush_line e 100 ~seq:5;
  Alcotest.(check int) "unflushed after flush" 0 (unflushed 100);
  Alcotest.(check int) "other line unaffected" 1 (unflushed 200);
  Alcotest.(check int) "flush count" 1 (Exec.Exec_record.flush_count e);
  Alcotest.(check int) "written addrs" 2 (List.length (Exec.Exec_record.written_addrs e))

let test_exec_stack () =
  let s = Exec.Exec_stack.create () in
  Alcotest.(check int) "depth" 1 (Exec.Exec_stack.depth s);
  let top = Exec.Exec_stack.top s in
  Alcotest.(check int) "top id" 1 (Exec.Exec_record.id top);
  let below = Exec.Exec_stack.prev s top in
  Alcotest.(check bool) "initial below" true (Exec.Exec_record.is_initial below);
  let e2 = Exec.Exec_stack.push_fresh s in
  Alcotest.(check int) "new top id" 2 (Exec.Exec_record.id e2);
  Alcotest.(check int) "depth 2" 2 (Exec.Exec_stack.depth s);
  Alcotest.(check int) "prev of new top" 1 (Exec.Exec_record.id (Exec.Exec_stack.prev s e2));
  Alcotest.check_raises "prev of initial" (Invalid_argument "Exec_stack.prev: no predecessor")
    (fun () -> ignore (Exec.Exec_stack.prev s below))

let test_exec_stack_seq () =
  let s = Exec.Exec_stack.create () in
  Alcotest.(check int) "fresh counter" 0 (Exec.Exec_stack.cur_seq s);
  Alcotest.(check int) "first draw" 1 (Exec.Exec_stack.next_seq s);
  Alcotest.(check int) "second draw" 2 (Exec.Exec_stack.next_seq s);
  Alcotest.(check int) "cur does not advance" 2 (Exec.Exec_stack.cur_seq s);
  let records = Exec.Exec_stack.to_list s in
  ignore (Exec.Exec_stack.push_fresh s);
  Alcotest.(check int) "a crash keeps counting" 3 (Exec.Exec_stack.next_seq s);
  let r = Exec.Exec_stack.of_records ~seq:2 records in
  Alcotest.(check int) "of_records sets the counter" 2 (Exec.Exec_stack.cur_seq r);
  Alcotest.(check int) "of_records sets the records" 1 (Exec.Exec_stack.depth r);
  Alcotest.(check bool) "the records themselves" true
    (List.for_all2 ( == ) records (Exec.Exec_stack.to_list r));
  Alcotest.(check int) "draws resume from the given counter" 3 (Exec.Exec_stack.next_seq r);
  Alcotest.check_raises "records without the initial image"
    (Invalid_argument "Exec_stack.of_records: bottom record must be the initial image")
    (fun () -> ignore (Exec.Exec_stack.of_records ~seq:0 [ Exec.Exec_record.create ~id:1 ]))

(* Records are found by id, so a restored list must count down by one to
   the initial image; the first id out of place, from the bottom, is
   named. *)
let test_exec_stack_restore_ids () =
  let r id = Exec.Exec_record.create ~id in
  let initial = Exec.Exec_record.initial () in
  Alcotest.check_raises "a gap"
    (Invalid_argument "Exec_stack.of_records: record id 3 where 2 expected") (fun () ->
      ignore (Exec.Exec_stack.of_records ~seq:5 [ r 3; r 1; initial ]));
  Alcotest.check_raises "a duplicate id"
    (Invalid_argument "Exec_stack.of_records: record id 1 where 2 expected") (fun () ->
      ignore (Exec.Exec_stack.of_records ~seq:5 [ r 2; r 1; r 1; initial ]));
  Alcotest.check_raises "no records"
    (Invalid_argument "Exec_stack.of_records: empty record list") (fun () ->
      ignore (Exec.Exec_stack.of_records ~seq:0 []));
  let e2 = r 2 and e1 = r 1 in
  let s = Exec.Exec_stack.of_records ~seq:5 [ e2; e1; initial ] in
  Alcotest.(check int) "contiguous ids accepted" 2 (Exec.Exec_stack.depth s);
  Alcotest.(check bool) "prev by id" true (Exec.Exec_stack.prev s e2 == e1);
  Alcotest.(check bool) "nth by id" true (Exec.Exec_stack.nth s 1 == e1)

(* No read adds a line to a record: a line no store or flush reached keeps
   reading as [0, infinity) without a slot, in the live record and in a
   snapshot view of it. *)
let test_reads_insert_no_lines () =
  let s = Exec.Exec_stack.create () in
  let e1 = Exec.Exec_stack.top s in
  Exec.Exec_record.push_store e1 100 ~width:1 ~value:1 ~seq:1 ~label:"w";
  let view = Exec.Exec_record.snapshot_view e1 in
  ignore (Exec.Exec_stack.push_fresh s);
  let untouched = 1000 in
  Alcotest.(check (list int)) "initial zero" [ 0 ] (may_read s untouched);
  List.iter
    (fun (what, e) ->
      Alcotest.(check (pair int int))
        (what ^ ": untouched line's bounds") (0, Pmem.Line_table.infinity)
        (Exec.Exec_record.line_bounds e untouched);
      ignore (Exec.Exec_record.line_lo e untouched);
      ignore (Exec.Exec_record.last_store_byte e untouched);
      Alcotest.(check int) (what ^ ": no slot") (-1)
        (Exec.Exec_record.line_slot e (Pmem.Addr.line_of untouched)))
    [ ("live", e1); ("view", view) ]

(* --- word-granular record against a per-byte model ------------------------ *)

(* The record keeps byte histories per line and takes whole stores; the model
   is the plain per-byte map it replaces: address to its (value, seq, label)
   entries, newest first. Pushes of every width land at any offset of three
   lines (so some straddle a boundary) with arbitrary ints as values; flushes
   interleave. After every step the bounded accessors are compared over a
   window one word wider than the lines on each side. The first [Snap] takes
   a view bounded at the current seq, which must keep showing the model as it
   was then; at the end a frozen copy of the view takes more pushes while the
   view stays put. *)

type rec_op = Push of int * int * int | Flush of int | Snap

let window_lo = 64 - 8
let window_hi = (4 * 64) + 8

type model = {
  bytes : (int, (int * int * string) list) Hashtbl.t;
  flushed : (int, int) Hashtbl.t;  (* line -> highest flush seq *)
  mutable stored : int;
  mutable flushes : int;
}

let fresh_model () =
  { bytes = Hashtbl.create 64; flushed = Hashtbl.create 4; stored = 0; flushes = 0 }

let copy_model m =
  { m with bytes = Hashtbl.copy m.bytes; flushed = Hashtbl.copy m.flushed }

let entries m addr = List.rev (Option.value ~default:[] (Hashtbl.find_opt m.bytes addr))

let model_push m addr ~width ~value ~seq ~label =
  for i = 0 to width - 1 do
    let byte = Pmem.Bytes_le.byte_at ~width:8 value i in
    let prev = Option.value ~default:[] (Hashtbl.find_opt m.bytes (addr + i)) in
    Hashtbl.replace m.bytes (addr + i) ((byte, seq, label) :: prev)
  done;
  m.stored <- m.stored + width

let model_flush m addr ~seq =
  let line = Pmem.Addr.line_of addr in
  let lo = Option.value ~default:0 (Hashtbl.find_opt m.flushed line) in
  Hashtbl.replace m.flushed line (max lo seq);
  m.flushes <- m.flushes + 1

(* [None] when the record agrees with the model, else what differs. *)
let record_mismatch e m =
  let fail fmt = Printf.ksprintf (fun s -> Some s) fmt in
  let rec at addr =
    if addr >= window_hi then None
    else
      let es = entries m addr in
      let got =
        List.map (fun (st : R.byte_store) -> (st.value, st.seq, st.label)) (R.visible_stores e addr)
      in
      let newest = match List.rev es with (v, _, _) :: _ -> v | [] -> -1 in
      let next_after s =
        match List.filter (fun (_, q, _) -> q > s) es with
        | (_, q, _) :: _ -> q
        | [] -> Pmem.Line_table.infinity
      in
      let probes = 0 :: List.concat_map (fun (_, q, _) -> [ q - 1; q; q + 1 ]) es in
      let lo = Option.value ~default:0 (Hashtbl.find_opt m.flushed (Pmem.Addr.line_of addr)) in
      if got <> es then
        fail "visible_stores 0x%x: %d entries, model %d" addr (List.length got) (List.length es)
      else if R.last_store_byte e addr <> newest then
        fail "last_store_byte 0x%x: %d, model %d" addr (R.last_store_byte e addr) newest
      else if List.exists (fun s -> R.next_store_seq_after e addr s <> next_after s) probes then
        fail "next_store_seq_after 0x%x" addr
      else if R.line_lo e addr <> lo then
        fail "line_lo 0x%x: %d, model %d" addr (R.line_lo e addr) lo
      else at (addr + 1)
  in
  let written = List.sort compare (Hashtbl.fold (fun a _ acc -> a :: acc) m.bytes []) in
  match at window_lo with
  | Some _ as err -> err
  | None ->
      if List.sort compare (R.written_addrs e) <> written then fail "written_addrs"
      else if R.store_count e <> m.stored then
        fail "store_count %d, model %d" (R.store_count e) m.stored
      else if R.flush_count e <> m.flushes then fail "flush_count"
      else None

let gen_rec_ops =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (frequency
         [
           ( 6,
             map3
               (fun off width value -> Push (64 + off, width, value))
               (int_range 0 (3 * 64 - 1))
               (oneofl [ 1; 2; 4; 8 ])
               int );
           (1, map (fun off -> Flush (64 + off)) (int_range 0 (3 * 64 - 1)));
           (1, return Snap);
         ]))

let print_rec_op = function
  | Push (a, w, v) -> Printf.sprintf "push 0x%x w%d %d" a w v
  | Flush a -> Printf.sprintf "flush 0x%x" a
  | Snap -> "snap"

let prop_word_granular_record =
  QCheck.Test.make ~name:"word-granular record = per-byte model" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print_rec_op) ~shrink:QCheck.Shrink.list gen_rec_ops)
    (fun ops ->
      let e = Exec.Exec_record.create ~id:1 and m = fresh_model () in
      let seq = ref 0 and view = ref None in
      let check what e m =
        match record_mismatch e m with
        | None -> ()
        | Some err -> QCheck.Test.fail_reportf "%s: %s" what err
      in
      let apply e m = function
        | Push (addr, width, value) ->
            incr seq;
            let label = Printf.sprintf "s%d" !seq in
            Exec.Exec_record.push_store e addr ~width ~value ~seq:!seq ~label;
            model_push m addr ~width ~value ~seq:!seq ~label
        | Flush addr ->
            incr seq;
            Exec.Exec_record.flush_line e addr ~seq:!seq;
            model_flush m addr ~seq:!seq
        | Snap -> ()
      in
      List.iter
        (fun op ->
          (match (op, !view) with
          | Snap, None ->
              view := Some (Exec.Exec_record.snapshot_view ~bound:!seq e, copy_model m)
          | _ -> apply e m op);
          check "live" e m;
          Option.iter (fun (v, vm) -> check "view" v vm) !view)
        ops;
      (match !view with
      | None -> ()
      | Some (v, vm) ->
          let frozen = Exec.Exec_record.snapshot_freeze v and fm = copy_model vm in
          check "frozen" frozen fm;
          List.iter
            (fun op ->
              apply frozen fm op;
              check "frozen after pushes" frozen fm;
              check "view after frozen pushes" v vm)
            ops;
          check "live after frozen pushes" e m);
      true)

(* --- read-from semantics ------------------------------------------------- *)

(* One failed execution over the initial image. *)
let stack_with_stores stores ~flush_at =
  let s = Exec.Exec_stack.create () in
  let e1 = Exec.Exec_stack.top s in
  List.iter
    (fun (addr, value, seq) -> Exec.Exec_record.push_store e1 addr ~width:1 ~value ~seq ~label:"w")
    stores;
  (match flush_at with
  | Some (addr, seq) -> Exec.Exec_record.flush_line e1 addr ~seq
  | None -> ());
  ignore (Exec.Exec_stack.push_fresh s);
  s

let test_rf_unflushed_line () =
  (* No flush: every store plus the initial zero is a candidate. *)
  let s = stack_with_stores [ (100, 1, 1); (100, 2, 2); (100, 3, 3) ] ~flush_at:None in
  Alcotest.(check (list int)) "newest first, zero last" [ 3; 2; 1; 0 ] (may_read s 100)

let test_rf_flushed_line () =
  (* Flush after seq 2: the newest store at or before the flush is definite;
     later stores remain possible; the initial zero is not. *)
  let s = stack_with_stores [ (100, 1, 1); (100, 2, 2); (100, 3, 4) ] ~flush_at:(Some (100, 3)) in
  Alcotest.(check (list int)) "window plus newest definite" [ 3; 2 ] (may_read s 100)

let test_rf_fully_flushed () =
  let s = stack_with_stores [ (100, 1, 1); (100, 2, 2) ] ~flush_at:(Some (100, 5)) in
  Alcotest.(check (list int)) "single definite value" [ 2 ] (may_read s 100)

let test_rf_current_execution_wins () =
  let s = stack_with_stores [ (100, 1, 1) ] ~flush_at:None in
  let top = Exec.Exec_stack.top s in
  Exec.Exec_record.push_store top 100 ~width:1 ~value:9 ~seq:10 ~label:"recovery write";
  Alcotest.(check (list int)) "own store shadows history" [ 9 ] (may_read s 100);
  (* The read refined nothing below the top. *)
  Alcotest.(check (pair int int)) "no persistency constraint" (0, Pmem.Line_table.infinity)
    (Exec.Exec_record.line_bounds (Exec.Exec_stack.nth s 1) 100)

let test_commit_refines_same_line () =
  (* The Fig. 2/3 scenario at byte granularity: after committing to the
     second store of a line, earlier stores to other bytes of that line are
     no longer candidates. *)
  let s =
    stack_with_stores
      [ (100, 1, 1) (* x=1 *); (108, 5, 2) (* y=5 *); (100, 2, 3) (* x=2 *) ]
      ~flush_at:None
  in
  Alcotest.(check (list int)) "x candidates" [ 2; 1; 0 ] (may_read s 100);
  (* Commit x to the newest store (seq 3). *)
  commit_nth s 100 0;
  Alcotest.(check (list int)) "y pinned by x's refinement" [ 5 ] (may_read s 108)

let test_commit_refines_upper_bound () =
  let s = stack_with_stores [ (100, 1, 1); (108, 5, 2); (100, 2, 3) ] ~flush_at:None in
  (* Commit x to the initial zero: the line was never written back after
     any store, so y must also read zero. *)
  Alcotest.(check int) "zero candidate" 0 (List.nth (may_read s 100) 2);
  commit_nth s 100 2;
  Alcotest.(check (list int)) "y pinned to zero" [ 0 ] (may_read s 108)

let test_rf_two_failures_deep () =
  (* Two failed executions: a value flushed in the older one is readable
     when the newer one never persisted its overwrite. *)
  let s = Exec.Exec_stack.create () in
  let e1 = Exec.Exec_stack.top s in
  Exec.Exec_record.push_store e1 100 ~width:1 ~value:1 ~seq:1 ~label:"old";
  Exec.Exec_record.flush_line e1 100 ~seq:2;
  let e2 = Exec.Exec_stack.push_fresh s in
  Exec.Exec_record.push_store e2 100 ~width:1 ~value:2 ~seq:3 ~label:"new unflushed";
  ignore (Exec.Exec_stack.push_fresh s);
  Alcotest.(check (list int)) "new store or older flushed value" [ 2; 1 ] (may_read s 100);
  (* Committing to the old value proves e2 never flushed the line after its
     store: e2's candidates collapse for subsequent reads. *)
  commit_nth s 100 1;
  Alcotest.(check (list int)) "refined to the old value" [ 1 ] (may_read s 100)

(* Reference model of ReadPreFailure for a single byte of a single failed
   execution: candidates are every store in the open window (lo, hi) newest
   first, then the newest store at or before lo — or the initial zero when
   no store predates lo. *)
let reference_candidates stores ~lo =
  let in_window = List.rev (List.filter (fun (s, _) -> s > lo) stores) in
  let le_lo = List.filter (fun (s, _) -> s <= lo) stores in
  let tail =
    match List.rev le_lo with (_, v) :: _ -> [ v ] | [] -> [ 0 ]
  in
  List.map snd in_window @ tail

let prop_candidates_match_reference =
  QCheck.Test.make ~name:"BuildMayReadFrom matches the Fig. 9 reference" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 8) (int_range 1 100))
        (option (int_range 0 60)))
    (fun (values, flush_after) ->
      (* Stores at seqs 2,4,6,...; optional flush at an interleaving seq. *)
      let stores = List.mapi (fun i v -> ((2 * i) + 2, v)) values in
      let s = Exec.Exec_stack.create () in
      let e1 = Exec.Exec_stack.top s in
      List.iter
        (fun (seq, v) ->
          Exec.Exec_record.push_store e1 100 ~width:1 ~value:(v land 0xff) ~seq ~label:"w")
        stores;
      let lo =
        match flush_after with
        | Some f when f > 0 ->
            Exec.Exec_record.flush_line e1 100 ~seq:f;
            f
        | _ -> 0
      in
      ignore (Exec.Exec_stack.push_fresh s);
      let got = may_read s 100 in
      let expected =
        reference_candidates (List.map (fun (q, v) -> (q, v land 0xff)) stores) ~lo
      in
      got = expected)

let prop_commit_narrows =
  QCheck.Test.make ~name:"committing to a candidate never widens later candidate sets" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 6) (int_range 1 100))
    (fun values ->
      let stores = List.mapi (fun i v -> ((2 * i) + 2, v land 0xff)) values in
      (* Refinement mutates the stack, so each candidate gets a fresh one. *)
      let stack () =
        let s = Exec.Exec_stack.create () in
        let e1 = Exec.Exec_stack.top s in
        List.iter
          (fun (seq, v) -> Exec.Exec_record.push_store e1 100 ~width:1 ~value:v ~seq ~label:"w")
          stores;
        ignore (Exec.Exec_stack.push_fresh s);
        s
      in
      let before = may_read (stack ()) 100 in
      List.for_all
        (fun k ->
          let s = stack () in
          let cands = may_read s 100 in
          commit_nth s 100 k;
          let after = may_read s 100 in
          (* The committed value must still be readable, and the set shrinks
             to candidates consistent with it. *)
          List.mem (List.nth cands k) after && List.length after <= List.length cands)
        (List.init (List.length before) Fun.id))

(* --- the per-load read path against a per-byte Fig. 9/10 model ------------ *)

(* A failure scenario over two adjacent cache lines: 1-3 failed executions,
   each a list of stores (width 1-8, some straddling the line boundary) and
   line flushes, optionally seen through a snapshot view captured after a
   prefix of its operations while the live record takes the rest; then a
   recovery that interleaves its own stores with loads of width 1-8, some
   straddling the boundary. The recovery record too may be replaced in the
   stack by a view of it after a prefix of its operations, so the loads see
   none of its later stores. The loads go through one reused
   [Read_from.view] as [Ctx] drives it; the model below recomputes every
   byte from boxed per-byte lists, sharing no code with [Read_from]. A
   multi-candidate byte takes the next of the generated picks. *)

type rf_op = Write of int * int * int | Flush of int | Load of int * int

type rf_case = {
  failed : (rf_op list * int option) list;  (* oldest first; capture point *)
  recovery : rf_op list;
  recovery_capture : int option;
  picks : int list;
}

let rf_base = 128 (* the two lines are 2 and 3 *)
let rf_bytes = 128

let gen_access =
  QCheck.Gen.(int_range 1 8 >>= fun w -> map (fun a -> (a, w)) (int_range 0 (rf_bytes - w)))

let gen_write = QCheck.Gen.(map2 (fun (a, w) v -> Write (a, w, v)) gen_access int)

let gen_failed =
  QCheck.Gen.(
    list_size (int_range 0 10)
      (frequency [ (7, gen_write); (3, map (fun l -> Flush l) (int_range 0 1)) ])
    >>= fun ops ->
    map (fun c -> (ops, c)) (option (int_range 0 (List.length ops))))

(* Recovery ops: stores, loads, and loads of bytes the newest store wrote,
   which the word path can take from that store alone. *)
let gen_recovery =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (frequency
         [
           (5, map (fun (a, w) -> `Op (Load (a, w))) gen_access);
           (3, map (fun op -> `Op op) gen_write);
           (2, map (fun p -> `Reload p) (pair nat nat));
         ])
    >|= fun raw ->
    let resolve (last, acc) = function
      | `Op (Write (a, w, _) as op) -> (Some (a, w), op :: acc)
      | `Op op -> (last, op :: acc)
      | `Reload (i, j) -> (
          match last with
          | Some (a, w) ->
              let o = i mod w in
              (last, Load (a + o, 1 + (j mod (w - o))) :: acc)
          | None -> (last, Load (0, 1) :: acc))
    in
    List.rev (snd (List.fold_left resolve (None, []) raw)))

let gen_rf_case =
  QCheck.Gen.(
    map3
      (fun failed (recovery, recovery_capture) picks ->
        { failed; recovery; recovery_capture; picks })
      (list_size (int_range 1 3) gen_failed)
      ( gen_recovery >>= fun ops ->
        map
          (fun c -> (ops, c))
          (frequency [ (1, return None); (1, map Option.some (int_range 0 (List.length ops))) ]) )
      (list_size (return 16) (int_range 0 1000)))

let print_rf_op = function
  | Write (a, w, v) -> Printf.sprintf "W(%d,w%d,%d)" a w v
  | Flush l -> Printf.sprintf "F%d" l
  | Load (a, w) -> Printf.sprintf "L(%d,w%d)" a w

let print_rf_case c =
  let ops l = String.concat " " (List.map print_rf_op l) in
  String.concat "\n"
    (List.mapi
       (fun k (l, cap) ->
         Printf.sprintf "exec %d%s: %s" (k + 1)
           (match cap with Some c -> Printf.sprintf " (view after %d)" c | None -> "")
           (ops l))
       c.failed
    @ [
        Printf.sprintf "recovery%s: %s"
          (match c.recovery_capture with
          | Some k -> Printf.sprintf " (view after %d)" k
          | None -> "")
          (ops c.recovery);
      ])

(* The model: per execution, each byte's visible stores oldest first as
   (seq, value, label), and each line's interval. *)
type model_exec = {
  stores : (int * int * string) list array;
  lo : int array;
  hi : int array;
}

let model_exec () =
  {
    stores = Array.make rf_bytes [];
    lo = Array.make 2 0;
    hi = Array.make 2 Pmem.Line_table.infinity;
  }

let model_write m a w v seq label =
  for i = 0 to w - 1 do
    m.stores.(a + i) <- m.stores.(a + i) @ [ (seq, (v lsr (8 * i)) land 0xff, label) ]
  done

(* ReadPreFailure, Fig. 9 lines 7-13, as written: candidates as
   (exec, seq, value, label), newest first. *)
let rec model_pre_failure ms k a =
  if k = 0 then [ (0, 0, 0, "<initial zero>") ]
  else
    match ms.(k).stores.(a) with
    | [] -> model_pre_failure ms (k - 1) a
    | st ->
        let line = a / 64 in
        let lo = ms.(k).lo.(line) and hi = ms.(k).hi.(line) in
        let tag (s, v, l) = (k, s, v, l) in
        let window = List.rev (List.filter (fun (s, _, _) -> lo < s && s < hi) st) in
        let tail =
          match List.rev (List.filter (fun (s, _, _) -> s <= lo) st) with
          | newest :: _ -> [ tag newest ]
          | [] -> model_pre_failure ms (k - 1) a
        in
        List.map tag window @ tail

(* UpdateRanges, Fig. 10. *)
let model_update ms ~top a (k_src, seq, _, _) =
  let line = a / 64 in
  for k = top - 1 downto k_src + 1 do
    match ms.(k).stores.(a) with
    | (first, _, _) :: _ -> ms.(k).hi.(line) <- min ms.(k).hi.(line) first
    | [] -> ()
  done;
  if k_src > 0 then begin
    let m = ms.(k_src) in
    m.lo.(line) <- max m.lo.(line) seq;
    let next =
      match List.filter (fun (s, _, _) -> s > seq) m.stores.(a) with
      | (s, _, _) :: _ -> s
      | [] -> Pmem.Line_table.infinity
    in
    m.hi.(line) <- min m.hi.(line) next
  end

let prop_read_path_matches_model =
  QCheck.Test.make ~name:"per-load read path = per-byte Fig. 9/10 model" ~count:500
    (QCheck.make ~print:print_rf_case gen_rf_case)
    (fun c ->
      let module R = Exec.Exec_record in
      let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "%s" m) fmt in
      let n = List.length c.failed in
      let top = n + 1 in
      let ms = Array.init (top + 1) (fun _ -> model_exec ()) in
      let seq = ref 0 in
      let apply e m k op =
        incr seq;
        match op with
        | Write (a, w, v) ->
            let label = Printf.sprintf "e%d@%d" k !seq in
            R.push_store e (rf_base + a) ~width:w ~value:v ~seq:!seq ~label;
            Option.iter (fun m -> model_write m a w v !seq label) m
        | Flush l ->
            R.flush_line e (rf_base + (64 * l)) ~seq:!seq;
            Option.iter (fun m -> m.lo.(l) <- max m.lo.(l) !seq) m
        | Load _ -> assert false
      in
      (* Failed executions: ops after a capture reach the live record only,
         and the stack holds the view. *)
      let records =
        List.mapi
          (fun i (ops, capture) ->
            let k = i + 1 in
            let e = R.create ~id:k and view = ref None in
            List.iteri
              (fun j op ->
                if capture = Some j then view := Some (R.snapshot_view ~bound:!seq e);
                apply e (if !view = None then Some ms.(k) else None) k op)
              ops;
            if capture = Some (List.length ops) then view := Some (R.snapshot_view ~bound:!seq e);
            Option.value ~default:e !view)
          c.failed
      in
      let top_rec = R.create ~id:top in
      let view_of records =
        Exec.Read_from.view (Exec.Exec_stack.of_records ~seq:!seq records)
      in
      let v = ref (view_of (top_rec :: List.rev records @ [ R.initial () ])) in
      let picks = ref c.picks in
      let pick len =
        match !picks with
        | p :: rest ->
            picks := rest @ [ p ];
            p mod len
        | [] -> 0
      in
      let tuple (src : Exec.Read_from.source) =
        ( R.id src.exec,
          Option.value ~default:(-1) src.seq,
          src.value,
          src.label )
      in
      (* One byte through [read], checked against the model: the byte
         [Read_from] gives the load and the model's byte. *)
      let read_byte a =
        let off = (rf_base + a) mod 64 in
        let got = Exec.Read_from.read !v off in
        match (List.rev ms.(top).stores.(a), model_pre_failure ms n a) with
        | (_, own, _) :: _, _ ->
            if got <> own then fail "byte %d: own store %d, read %d" a own got;
            (got, own)
        | [], [ ((_, _, value, _) as only) ] ->
            if got <> value then fail "byte %d: single candidate %d, read %d" a value got;
            model_update ms ~top a only;
            (got, value)
        | [], cands ->
            if got <> -1 then
              fail "byte %d: %d candidates, read one (%d)" a (List.length cands) got;
            let real = Exec.Read_from.candidates !v in
            if List.map tuple real <> cands then fail "byte %d: candidate lists differ" a;
            let k = pick (List.length cands) in
            Exec.Read_from.commit !v off (List.nth real k);
            let ((_, _, value, _) as chosen) = List.nth cands k in
            model_update ms ~top a chosen;
            ((List.nth real k).value, value)
      in
      (* The model's byte for a load the word path took whole: the top's own
         store, or the only candidate, committed in the model. *)
      let model_single a =
        match (List.rev ms.(top).stores.(a), model_pre_failure ms n a) with
        | (_, own, _) :: _, _ -> own
        | [], [ ((_, _, value, _) as only) ] ->
            model_update ms ~top a only;
            value
        | [], cands -> fail "byte %d: word path took a byte of %d candidates" a (List.length cands)
      in
      let compose bytes = Array.fold_right (fun b acc -> (acc lsl 8) lor b) bytes 0 in
      let check_intervals () =
        List.iteri
          (fun i e ->
            let k = i + 1 in
            for l = 0 to 1 do
              let got = R.line_bounds e (rf_base + (64 * l)) in
              if got <> (ms.(k).lo.(l), ms.(k).hi.(l)) then
                fail "exec %d line %d: interval (%d, %d), model (%d, %d)" k l (fst got) (snd got)
                  ms.(k).lo.(l) ms.(k).hi.(l)
            done)
          records
      in
      (* From the capture on, the stack's top is a view of [top_rec]. *)
      let top_view = ref false in
      let capture () =
        top_view := true;
        v := view_of (R.snapshot_view ~bound:!seq top_rec :: List.rev records @ [ R.initial () ])
      in
      List.iteri
        (fun j op ->
          if c.recovery_capture = Some j then capture ();
          match op with
          | Load (a, w) ->
              (* As [Ctx] loads: the word path for a load inside one line,
                 else byte by byte, reopening the view at the boundary. *)
              let off = (rf_base + a) mod 64 in
              Exec.Read_from.open_line !v (Pmem.Addr.line_of (rf_base + a));
              let got, expected =
                if off + w <= 64 && Exec.Read_from.load !v off w then
                  (Exec.Read_from.loaded !v, compose (Array.init w (fun i -> model_single (a + i))))
                else
                  let bytes =
                    Array.init w (fun i ->
                        if i > 0 && (rf_base + a + i) mod 64 = 0 then
                          Exec.Read_from.open_line !v (Pmem.Addr.line_of (rf_base + a + i));
                        read_byte (a + i))
                  in
                  (compose (Array.map fst bytes), compose (Array.map snd bytes))
              in
              if got <> expected then fail "load(%d, w%d): read 0x%x, model 0x%x" a w got expected;
              check_intervals ()
          | op -> apply top_rec (if !top_view then None else Some ms.(top)) top op)
        c.recovery;
      true)

let () =
  Alcotest.run "exec"
    [
      (* A byte's store queue: its projection of the line log. *)
      ( "store-queue",
        [
          Alcotest.test_case "basics" `Quick test_log_basics;
          Alcotest.test_case "next_seq_after" `Quick test_next_seq_after;
          QCheck_alcotest.to_alcotest prop_next_seq_after;
        ] );
      ( "records",
        [
          Alcotest.test_case "exec record" `Quick test_exec_record;
          Alcotest.test_case "exec stack" `Quick test_exec_stack;
          Alcotest.test_case "exec stack sequence counter" `Quick test_exec_stack_seq;
          Alcotest.test_case "exec stack restore checks ids" `Quick test_exec_stack_restore_ids;
          Alcotest.test_case "reads insert no lines" `Quick test_reads_insert_no_lines;
          QCheck_alcotest.to_alcotest prop_word_granular_record;
        ] );
      ( "read-from",
        [
          Alcotest.test_case "unflushed line" `Quick test_rf_unflushed_line;
          Alcotest.test_case "flushed line" `Quick test_rf_flushed_line;
          Alcotest.test_case "fully flushed" `Quick test_rf_fully_flushed;
          Alcotest.test_case "current execution wins" `Quick test_rf_current_execution_wins;
          Alcotest.test_case "same-line refinement" `Quick test_commit_refines_same_line;
          Alcotest.test_case "upper-bound refinement" `Quick test_commit_refines_upper_bound;
          Alcotest.test_case "two failures deep" `Quick test_rf_two_failures_deep;
          QCheck_alcotest.to_alcotest prop_candidates_match_reference;
          QCheck_alcotest.to_alcotest prop_commit_narrows;
          QCheck_alcotest.to_alcotest prop_read_path_matches_model;
        ] );
    ]
