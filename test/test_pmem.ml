(* Unit and property tests for the pmem substrate. *)

let test_addr_lines () =
  Alcotest.(check int) "line of 0" 0 (Pmem.Addr.line_of 0);
  Alcotest.(check int) "line of 63" 0 (Pmem.Addr.line_of 63);
  Alcotest.(check int) "line of 64" 1 (Pmem.Addr.line_of 64);
  Alcotest.(check int) "base" 64 (Pmem.Addr.line_base 100);
  Alcotest.(check int) "offset" 36 (Pmem.Addr.line_offset 100);
  Alcotest.(check bool) "same line" true (Pmem.Addr.same_line 64 127);
  Alcotest.(check bool) "diff line" false (Pmem.Addr.same_line 63 64);
  Alcotest.(check (list int)) "span one" [ 1 ] (Pmem.Addr.lines_spanned 64 64);
  Alcotest.(check (list int)) "span two" [ 0; 1 ] (Pmem.Addr.lines_spanned 60 8);
  Alcotest.(check (list int)) "span three" [ 0; 1; 2 ] (Pmem.Addr.lines_spanned 0 129)

(* Line_table: the per-line last-writeback intervals [lo, hi). A slot index
   is valid only until the next insertion, so each read re-finds its line. *)

module Lt = Pmem.Line_table

let bounds t line =
  let i = Lt.find t line in
  (Lt.lo t i, Lt.hi t i)

let raise_lo t line s = Lt.raise_lo t (Lt.find t line) s
let lower_hi t line s = Lt.lower_hi t (Lt.find t line) s
let mem t line s =
  let lo, hi = bounds t line in
  lo <= s && s < hi

let is_empty t line =
  let lo, hi = bounds t line in
  lo >= hi

let test_line_table_basics () =
  let t = Lt.create ~empty:() in
  Alcotest.(check int) "lo" 0 (fst (bounds t 7));
  Alcotest.(check int) "hi" Lt.infinity (snd (bounds t 7));
  Alcotest.(check bool) "not empty" false (is_empty t 7);
  raise_lo t 7 10;
  raise_lo t 7 5 (* no-op: lower than current *);
  Alcotest.(check int) "lo raised" 10 (fst (bounds t 7));
  lower_hi t 7 20;
  lower_hi t 7 30 (* no-op *);
  Alcotest.(check int) "hi lowered" 20 (snd (bounds t 7));
  Alcotest.(check bool) "mem 10" true (mem t 7 10);
  Alcotest.(check bool) "mem 19" true (mem t 7 19);
  Alcotest.(check bool) "not mem 20" false (mem t 7 20);
  Alcotest.(check (pair int int)) "other lines untouched" (0, Lt.infinity) (bounds t 8);
  lower_hi t 7 10;
  Alcotest.(check bool) "now empty" true (is_empty t 7);
  Alcotest.(check int) "two lines materialised" 2 (Lt.length t)

let test_line_table_copy () =
  let a = Lt.create ~empty:() in
  raise_lo a 1 3;
  let b = Lt.copy a in
  raise_lo a 1 9;
  Alcotest.(check int) "copy is independent" 3 (fst (bounds b 1));
  lower_hi b 1 6;
  raise_lo b 2 4;
  Alcotest.(check (pair int int)) "original unaffected by the copy" (9, Lt.infinity) (bounds a 1);
  Alcotest.(check int) "line added to the copy only" 1 (Lt.length a);
  Alcotest.(check int) "copy keeps its own lines" 2 (Lt.length b)

let test_line_table_grows () =
  let t = Lt.create ~empty:() in
  let n = 1_000 in
  (* Scattered line numbers, so several grows rehash colliding probes. *)
  let line k = (k * 7919) + (k land 3) in
  for k = 0 to n - 1 do
    raise_lo t (line k) (k + 1);
    lower_hi t (line k) (2 * n + k)
  done;
  Alcotest.(check int) "every line stored" n (Lt.length t);
  for k = 0 to n - 1 do
    if bounds t (line k) <> (k + 1, 2 * n + k) then
      Alcotest.failf "line %d lost its interval across grows" (line k)
  done;
  Alcotest.(check int) "lookups insert nothing" n (Lt.length t)

(* Each slot carries a payload: [empty] until set, shared by [copy] and
   mapped by [copy_map]; [find_existing] locates a line without inserting
   it, and answers -1 for an absent or negative line. *)
let line_table_payload create () =
  let t = create ~empty:"" in
  let payload t line = match Lt.find_existing t line with -1 -> "<absent>" | i -> Lt.data t i in
  Alcotest.(check string) "absent line" "<absent>" (payload t 3);
  Alcotest.(check int) "find_existing inserts nothing" 0 (Lt.length t);
  Lt.set_data t (Lt.find t 3) "three";
  ignore (Lt.find t 4);
  Alcotest.(check string) "set" "three" (payload t 3);
  Alcotest.(check string) "fresh slot" "" (payload t 4);
  Alcotest.(check int) "same slot as find" (Lt.find t 3) (Lt.find_existing t 3);
  Alcotest.(check string) "negative line" "<absent>" (payload t (-1));
  Alcotest.(check int) "still two lines" 2 (Lt.length t);
  let c = Lt.copy t and m = Lt.copy_map String.uppercase_ascii t in
  Lt.set_data t (Lt.find t 3) "changed";
  Alcotest.(check string) "copy keeps the old payload" "three" (payload c 3);
  Alcotest.(check string) "copy_map maps it" "THREE" (payload m 3);
  Alcotest.(check (list (pair int string)))
    "fold visits every line" [ (3, "changed"); (4, "") ]
    (List.sort compare (Lt.fold (fun line d acc -> (line, d) :: acc) t []))

let test_line_table_payload = line_table_payload Lt.create

(* A payload-only table, as the TSO line timestamps and the redundant pass
   keep, has no bounds to read: payloads survive grows, copies are
   independent, and [clear] forgets every line. *)
let test_payload_only_grows_copies_clears () =
  let t = Lt.create_payload_only ~empty:0 in
  let n = 1_000 in
  let line k = (k * 7919) + (k land 3) in
  for k = 0 to n - 1 do
    Lt.set_data t (Lt.find t (line k)) (k + 1)
  done;
  Alcotest.(check int) "every line stored" n (Lt.length t);
  let c = Lt.copy t in
  for k = 0 to n - 1 do
    if Lt.data t (Lt.find_existing t (line k)) <> k + 1 then
      Alcotest.failf "line %d lost its payload across grows" (line k)
  done;
  Lt.set_data t (Lt.find t (line 5)) 0;
  Alcotest.(check int) "copy keeps its payload" 6 (Lt.data c (Lt.find_existing c (line 5)));
  Lt.clear t;
  Alcotest.(check int) "no lines" 0 (Lt.length t);
  Alcotest.(check int) "fresh payload" 0 (Lt.data t (Lt.find t (line 7)));
  Alcotest.(check int) "copy untouched by clear" n (Lt.length c)

(* [clear] empties the table in place, keeping its capacity: a line found
   again afterwards starts over at [0, infinity) with the empty payload, and
   a copy taken before is untouched. *)
let test_line_table_clear () =
  let t = Lt.create ~empty:0 in
  for line = 0 to 99 do
    Lt.set_data t (Lt.find t line) (line + 1);
    raise_lo t line 5
  done;
  let c = Lt.copy t in
  Lt.clear t;
  Alcotest.(check int) "no lines" 0 (Lt.length t);
  Alcotest.(check int) "absent after clear" (-1) (Lt.find_existing t 7);
  Alcotest.(check (pair int int)) "fresh bounds" (0, Lt.infinity) (bounds t 7);
  Alcotest.(check int) "fresh payload" 0 (Lt.data t (Lt.find t 7));
  Alcotest.(check int) "copy untouched" 8 (Lt.data c (Lt.find_existing c 7));
  Alcotest.(check int) "one line again" 1 (Lt.length t)

let test_line_table_negative () =
  Alcotest.check_raises "negative line" (Invalid_argument "Line_table.find: negative line")
    (fun () -> ignore (Lt.find (Lt.create ~empty:()) (-1)))

(* Against a model: lo is the largest raise (or 0), hi the smallest lowering
   (or infinity), whatever the order of refinements across a few lines. *)
let prop_line_table_monotone =
  QCheck.Test.make ~name:"line_table refinements are monotone" ~count:300
    QCheck.(list (triple bool (int_range 0 5) (int_range 0 1000)))
    (fun ops ->
      let t = Lt.create ~empty:() in
      let model = Hashtbl.create 8 in
      List.iter
        (fun (up, line, s) ->
          let lo, hi = Option.value ~default:(0, Lt.infinity) (Hashtbl.find_opt model line) in
          if up then begin
            raise_lo t line s;
            Hashtbl.replace model line (max lo s, hi)
          end
          else begin
            lower_hi t line s;
            Hashtbl.replace model line (lo, min hi s)
          end)
        ops;
      Hashtbl.fold (fun line b ok -> ok && bounds t line = b) model true
      && Lt.length t = Hashtbl.length model)

let test_bytes_known () =
  Alcotest.(check (list int)) "explode 1" [ 0xff ] (Pmem.Bytes_le.explode ~width:1 0xff);
  Alcotest.(check (list int)) "explode 2 LE" [ 0x34; 0x12 ] (Pmem.Bytes_le.explode ~width:2 0x1234);
  Alcotest.(check int) "implode" 0x1234 (Pmem.Bytes_le.implode [ 0x34; 0x12 ]);
  Alcotest.(check int) "byte_at" 0x12 (Pmem.Bytes_le.byte_at ~width:2 0x1234 1);
  Alcotest.(check int) "truncate" 0x34 (Pmem.Bytes_le.truncate ~width:1 0x1234);
  Alcotest.(check int) "truncate id" max_int (Pmem.Bytes_le.truncate ~width:8 max_int)

let test_bytes_invalid () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bytes_le: width 0 not in [1, 8]") (fun () ->
      ignore (Pmem.Bytes_le.explode ~width:0 1));
  Alcotest.check_raises "width 9" (Invalid_argument "Bytes_le: width 9 not in [1, 8]") (fun () ->
      ignore (Pmem.Bytes_le.explode ~width:9 1))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"explode/implode roundtrip" ~count:500
    QCheck.(pair (int_range 1 8) int)
    (fun (width, v) ->
      let v = Pmem.Bytes_le.truncate ~width v in
      Pmem.Bytes_le.implode (Pmem.Bytes_le.explode ~width v) = v)

let prop_bytes_roundtrip_full_width =
  QCheck.Test.make ~name:"width-8 roundtrip incl. negatives" ~count:500 QCheck.int (fun v ->
      Pmem.Bytes_le.implode (Pmem.Bytes_le.explode ~width:8 v) = v)

let test_crc_known () =
  (* Standard CRC-32 test vector. *)
  Alcotest.(check int) "123456789" 0xcbf43926 (Pmem.Crc32.digest_string "123456789");
  Alcotest.(check int) "empty" 0 (Pmem.Crc32.digest_string "")

let prop_crc_incremental =
  QCheck.Test.make ~name:"incremental crc = one-shot crc" ~count:200
    QCheck.(list (int_range 0 255))
    (fun bytes ->
      Pmem.Crc32.digest_bytes bytes
      = Pmem.Crc32.finish (List.fold_left Pmem.Crc32.update Pmem.Crc32.empty bytes))

let prop_crc_discriminates =
  QCheck.Test.make ~name:"crc differs on a flipped byte" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 32) (int_range 0 255)) (int_range 0 31))
    (fun (bytes, i) ->
      QCheck.assume (bytes <> []);
      let i = i mod List.length bytes in
      let flipped = List.mapi (fun j b -> if j = i then b lxor 0x5a else b) bytes in
      Pmem.Crc32.digest_bytes bytes <> Pmem.Crc32.digest_bytes flipped)

let test_region () =
  let r = Pmem.Region.v ~base:0x1000 ~size:256 in
  Alcotest.(check bool) "contains start" true (Pmem.Region.contains r 0x1000 1);
  Alcotest.(check bool) "contains all" true (Pmem.Region.contains r 0x1000 256);
  Alcotest.(check bool) "limit excluded" false (Pmem.Region.contains r 0x1100 1);
  Alcotest.(check bool) "below" false (Pmem.Region.contains r 0xfff 1);
  Alcotest.(check bool) "overrun" false (Pmem.Region.contains r 0x10ff 2);
  Alcotest.(check bool) "end at the limit" true (Pmem.Region.contains r 0x10f8 8);
  Alcotest.(check int) "limit" 0x1100 (Pmem.Region.limit r);
  Alcotest.check_raises "unaligned base"
    (Invalid_argument "Region.v: base must be positive and cache-line aligned") (fun () ->
      ignore (Pmem.Region.v ~base:0x1001 ~size:64))

(* [a + n] wraps negative for [a] near [max_int]; the check must not. *)
let test_region_overflow () =
  let r = Pmem.Region.v ~base:0x1000 ~size:256 in
  Alcotest.(check bool) "end wraps" false (Pmem.Region.contains r (max_int - 2) 8);
  Alcotest.(check bool) "at max_int" false (Pmem.Region.contains r max_int 1);
  Alcotest.(check bool) "huge width" false (Pmem.Region.contains r 0x1000 max_int);
  let top = Pmem.Region.v ~base:((max_int - 255) land lnot 63) ~size:128 in
  Alcotest.(check bool) "end at a high limit" true
    (Pmem.Region.contains top (Pmem.Region.limit top - 8) 8);
  Alcotest.(check bool) "past a high limit" false
    (Pmem.Region.contains top (Pmem.Region.limit top - 7) 8);
  Alcotest.check_raises "limit overflows" (Invalid_argument "Region.v: base + size overflows")
    (fun () -> ignore (Pmem.Region.v ~base:0x1000 ~size:max_int))

let () =
  Alcotest.run "pmem"
    [
      ( "addr",
        [ Alcotest.test_case "lines" `Quick test_addr_lines ] );
      ( "line_table",
        [
          Alcotest.test_case "basics" `Quick test_line_table_basics;
          Alcotest.test_case "copy" `Quick test_line_table_copy;
          Alcotest.test_case "1000 lines across grows" `Quick test_line_table_grows;
          Alcotest.test_case "negative line" `Quick test_line_table_negative;
          Alcotest.test_case "payload" `Quick test_line_table_payload;
          Alcotest.test_case "clear" `Quick test_line_table_clear;
          Alcotest.test_case "payload-only payload" `Quick
            (line_table_payload Lt.create_payload_only);
          Alcotest.test_case "payload-only grows, copies, clears" `Quick
            test_payload_only_grows_copies_clears;
          QCheck_alcotest.to_alcotest prop_line_table_monotone;
        ] );
      ( "bytes",
        [
          Alcotest.test_case "known values" `Quick test_bytes_known;
          Alcotest.test_case "invalid widths" `Quick test_bytes_invalid;
          QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
          QCheck_alcotest.to_alcotest prop_bytes_roundtrip_full_width;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_known;
          QCheck_alcotest.to_alcotest prop_crc_incremental;
          QCheck_alcotest.to_alcotest prop_crc_discriminates;
        ] );
      ( "region",
        [
          Alcotest.test_case "bounds" `Quick test_region;
          Alcotest.test_case "no overflow near max_int" `Quick test_region_overflow;
        ] );
    ]
