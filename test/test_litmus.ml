(* A battery of persistency litmus tests: for each idiom, the exact set of
   states recovery may observe when power is lost at a precise point. Uses
   Ctx.crash with max_failures = 0, so the explicit crash is the only
   failure and the observation sets are sharp (no aggregation over earlier
   failure points).

   Each expected set is derived by hand from the Px86sim rules: a line's
   content in PM is a prefix cut of its store sequence, cuts are per-line
   independent, clflush pins the cut at or after the flush, clflushopt only
   does so once an sfence/mfence/RMW has drained the flush buffer. *)

open Jaaru

let a0 = 0x1000 (* line 0 *)
let a1 = 0x1008 (* line 0, second word *)
let b0 = 0x1040 (* line 1 *)

let behaviors ?(policy = Config.Eager) pre post =
  let config =
    { Config.default with Config.max_failures = 0; Config.evict_policy = policy }
  in
  Yat.Eager.jaaru_behaviors ~config
    ~pre:(fun ctx ->
      pre ctx;
      Ctx.crash ctx)
    ~post ()

let read1 ctx = string_of_int (Ctx.load64 ctx ~label:"rA" a0)

let read2 ctx =
  Printf.sprintf "%d,%d" (Ctx.load64 ctx ~label:"rA" a0) (Ctx.load64 ctx ~label:"rB" b0)

let read_pair_same_line ctx =
  Printf.sprintf "%d,%d" (Ctx.load64 ctx ~label:"rA" a0) (Ctx.load64 ctx ~label:"rA1" a1)

let check name expected got = Alcotest.(check (list string)) name expected got

(* --- single variable ---------------------------------------------------------- *)

let unflushed_store () =
  check "store alone may or may not persist" [ "0"; "7" ]
    (behaviors (fun ctx -> Ctx.store64 ctx a0 7) read1)

let clflush_pins () =
  check "clflush guarantees persistence" [ "7" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.clflush ctx a0 8)
       read1)

let overwrite_unflushed () =
  check "overwrites give prefix cuts" [ "0"; "1"; "2" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 1;
         Ctx.store64 ctx a0 2)
       read1)

let overwrite_after_flush () =
  check "flush between overwrites drops the zero" [ "1"; "2" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 1;
         Ctx.clflush ctx a0 8;
         Ctx.store64 ctx a0 2)
       read1)

(* --- clflushopt and fences ----------------------------------------------------- *)

let clflushopt_unfenced () =
  check "clflushopt without a fence guarantees nothing" [ "0"; "7" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.clflushopt ctx a0 8)
       read1)

let clflushopt_sfence () =
  check "clflushopt + sfence pins" [ "7" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.clflushopt ctx a0 8;
         Ctx.sfence ctx ())
       read1)

let clflushopt_mfence () =
  check "clflushopt + mfence pins" [ "7" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.clflushopt ctx a0 8;
         Ctx.mfence ctx ())
       read1)

let clflushopt_rmw_drains () =
  check "a locked RMW drains the flush buffer" [ "7" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.clflushopt ctx a0 8;
         ignore (Ctx.cas64 ctx b0 ~expected:0 ~desired:1))
       read1)

let clwb_is_clflushopt () =
  check "clwb behaves like clflushopt" [ "0"; "7" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.clwb ctx a0 8)
       read1);
  check "clwb + sfence pins" [ "7" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.clwb ctx a0 8;
         Ctx.sfence ctx ())
       read1)

(* Thread exit is a synchronisation step: the exited thread's store buffer
   and flush buffer drain, so a clflushopt it issued persists its line
   before a sibling's later crash, under either policy. *)
let thread_exit_drains () =
  List.iter
    (fun (name, policy) ->
      check ("thread exit drains the flush buffer, " ^ name) [ "1" ]
        (behaviors ~policy
           (fun ctx ->
             Ctx.parallel ctx
               [
                 (fun ctx ->
                   Ctx.store64 ctx a0 1;
                   Ctx.clflushopt ctx a0 8);
                 (fun ctx ->
                   for _ = 1 to 4 do
                     ignore (Ctx.load64 ctx b0)
                   done;
                   Ctx.crash ctx);
               ])
           read1))
    [ ("eager", Config.Eager); ("buffered", Config.Buffered) ]

(* --- cross-line (in)dependence -------------------------------------------------- *)

let flush_does_not_order_other_lines () =
  check "flushing A says nothing about B" [ "7,0"; "7,9" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.clflush ctx a0 8;
         Ctx.store64 ctx b0 9)
       read2)

let lines_cut_independently () =
  check "per-line cuts are independent" [ "0,0"; "0,9"; "7,0"; "7,9" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.store64 ctx b0 9)
       read2)

let flushopt_other_line_irrelevant () =
  check "clflushopt of another line does not pin A" [ "0"; "7" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.clflushopt ctx b0 8;
         Ctx.sfence ctx ())
       read1)

(* --- same-line coupling ----------------------------------------------------------- *)

let same_line_prefix_cuts () =
  (* x=1; y=2 on one line: the cut is a prefix of the store order. *)
  check "same-line prefix cuts" [ "0,0"; "1,0"; "1,2" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 1;
         Ctx.store64 ctx a1 2)
       read_pair_same_line)

let same_line_flush_midway () =
  (* x=1; clflush; y=2; x=3: the cut is at or after the flush. *)
  check "flush bounds the cut below" [ "1,0"; "1,2"; "3,2" ]
    (behaviors
       (fun ctx ->
         Ctx.store64 ctx a0 1;
         Ctx.clflush ctx a0 8;
         Ctx.store64 ctx a1 2;
         Ctx.store64 ctx a0 3)
       read_pair_same_line)

let paper_fig23 () =
  (* The paper's running example, as exact observation sets. *)
  let pre ctx =
    Ctx.store64 ctx a1 1 (* y=1 *);
    Ctx.store64 ctx a0 2 (* x=2 *);
    Ctx.clflush ctx a0 8;
    Ctx.store64 ctx a1 3 (* y=3 *);
    Ctx.store64 ctx a0 4 (* x=4 *);
    Ctx.store64 ctx a1 5 (* y=5 *);
    Ctx.store64 ctx a0 6 (* x=6 *)
  in
  let post ctx =
    Printf.sprintf "x=%d,y=%d" (Ctx.load64 ctx ~label:"x" a0) (Ctx.load64 ctx ~label:"y" a1)
  in
  check "fig 2/3 exact states"
    [ "x=2,y=1"; "x=2,y=3"; "x=4,y=3"; "x=4,y=5"; "x=6,y=5" ]
    (behaviors pre post)

(* --- mixed sizes -------------------------------------------------------------------- *)

let torn_across_lines () =
  (* An 8-byte store straddling a line boundary is NOT persist-atomic. *)
  let addr = 0x1040 - 4 in
  check "line-straddling store can tear"
    [ "0,0"; "0,2"; "16908545,0"; "16908545,2" ]
    (behaviors
       (fun ctx ->
         (* LE bytes 01 01 02 01 land on line 0 (= 0x01020101 = 16908545 as a
            32-bit read); byte 02 and zeros land on line 1 (= 2). Each line
            persists independently. *)
         Ctx.store64 ctx ~label:"straddle" addr 0x0000000201020101)
       (fun ctx ->
         Printf.sprintf "%d,%d"
           (Ctx.load32 ctx ~label:"low" (0x1040 - 4))
           (Ctx.load32 ctx ~label:"high" 0x1040)))

let aligned_store_atomic () =
  (* Within one line a store persists all-or-nothing. *)
  check "aligned store is persist-atomic" [ "0"; "72623859790382856" ]
    (behaviors (fun ctx -> Ctx.store64 ctx a0 0x0102030405060708) read1)

(* --- buffered policy ------------------------------------------------------------------ *)

let buffered_store_may_die_in_sb () =
  check "buffered: store may never reach the cache" [ "0"; "7" ]
    (behaviors ~policy:Config.Buffered (fun ctx -> Ctx.store64 ctx a0 7) read1)

let buffered_clflush_in_sb_is_void () =
  (* Even a clflush guarantees nothing while it sits in the store buffer. *)
  check "buffered: unfenced clflush may be lost" [ "0"; "7" ]
    (behaviors ~policy:Config.Buffered
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.clflush ctx a0 8)
       read1)

let buffered_mfence_pins () =
  check "buffered: clflush + mfence pins" [ "7" ]
    (behaviors ~policy:Config.Buffered
       (fun ctx ->
         Ctx.store64 ctx a0 7;
         Ctx.clflush ctx a0 8;
         Ctx.mfence ctx ())
       read1)

(* A store straddling two lines stamps both lines' timestamps, so a
   clflushopt of the second line is ordered after it: once the mfence
   drains, the second line holds the store's high half. *)
let buffered_straddle_clflushopt () =
  check "buffered: clflushopt orders a straddling store" [ "286331153" ]
    (behaviors ~policy:Config.Buffered
       (fun ctx ->
         Ctx.store64 ctx (b0 - 4) 0x1111111111111111;
         Ctx.clflushopt ctx b0 8;
         Ctx.mfence ctx ())
       (fun ctx -> string_of_int (Ctx.load32 ctx b0)))

let () =
  Alcotest.run "litmus"
    [
      ( "single-variable",
        [
          Alcotest.test_case "unflushed store" `Quick unflushed_store;
          Alcotest.test_case "clflush pins" `Quick clflush_pins;
          Alcotest.test_case "overwrite unflushed" `Quick overwrite_unflushed;
          Alcotest.test_case "overwrite after flush" `Quick overwrite_after_flush;
        ] );
      ( "flush-buffer",
        [
          Alcotest.test_case "clflushopt unfenced" `Quick clflushopt_unfenced;
          Alcotest.test_case "clflushopt + sfence" `Quick clflushopt_sfence;
          Alcotest.test_case "clflushopt + mfence" `Quick clflushopt_mfence;
          Alcotest.test_case "RMW drains" `Quick clflushopt_rmw_drains;
          Alcotest.test_case "clwb = clflushopt" `Quick clwb_is_clflushopt;
          Alcotest.test_case "thread exit drains" `Quick thread_exit_drains;
        ] );
      ( "cross-line",
        [
          Alcotest.test_case "flush is per-line" `Quick flush_does_not_order_other_lines;
          Alcotest.test_case "independent cuts" `Quick lines_cut_independently;
          Alcotest.test_case "other-line flushopt" `Quick flushopt_other_line_irrelevant;
        ] );
      ( "same-line",
        [
          Alcotest.test_case "prefix cuts" `Quick same_line_prefix_cuts;
          Alcotest.test_case "flush midway" `Quick same_line_flush_midway;
          Alcotest.test_case "paper fig 2/3" `Quick paper_fig23;
        ] );
      ( "mixed-size",
        [
          Alcotest.test_case "straddling store tears" `Quick torn_across_lines;
          Alcotest.test_case "aligned store atomic" `Quick aligned_store_atomic;
        ] );
      ( "buffered-policy",
        [
          Alcotest.test_case "store dies in SB" `Quick buffered_store_may_die_in_sb;
          Alcotest.test_case "clflush in SB void" `Quick buffered_clflush_in_sb_is_void;
          Alcotest.test_case "mfence pins" `Quick buffered_mfence_pins;
          Alcotest.test_case "straddle + clflushopt" `Quick buffered_straddle_clflushopt;
        ] );
    ]
