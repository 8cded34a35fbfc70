(* The TSO storage machinery: buffers, eviction algorithms, and Table 1
   checked behaviourally. *)

(* Evictions write into the top of an execution stack; [record] is that top. *)
let mk_stack () =
  let stack = Exec.Exec_stack.create () in
  (stack, Exec.Exec_stack.top stack)

let test_store_buffer_fifo () =
  let sb = Tso.Store_buffer.create () in
  Tso.Store_buffer.enqueue sb (Tso.Store_buffer.Store { addr = 0; value = 1; width = 1; label = "a" });
  Tso.Store_buffer.enqueue sb Tso.Store_buffer.Sfence;
  Tso.Store_buffer.enqueue sb (Tso.Store_buffer.Store { addr = 8; value = 2; width = 1; label = "b" });
  Alcotest.(check int) "length" 3 (Tso.Store_buffer.length sb);
  (match Tso.Store_buffer.dequeue sb with
  | Some (Tso.Store_buffer.Store { label = "a"; _ }) -> ()
  | _ -> Alcotest.fail "FIFO order violated");
  (match Tso.Store_buffer.dequeue sb with
  | Some Tso.Store_buffer.Sfence -> ()
  | _ -> Alcotest.fail "FIFO order violated");
  Alcotest.(check int) "remaining" 1 (Tso.Store_buffer.length sb)

let test_store_buffer_bypass () =
  let sb = Tso.Store_buffer.create () in
  Tso.Store_buffer.enqueue sb
    (Tso.Store_buffer.Store { addr = 100; value = 0x04030201; width = 4; label = "old" });
  Tso.Store_buffer.enqueue sb
    (Tso.Store_buffer.Store { addr = 102; value = 9; width = 1; label = "new" });
  Alcotest.(check int) "newest wins" 9 (Tso.Store_buffer.forward_byte sb 102);
  Alcotest.(check int) "older byte" 2 (Tso.Store_buffer.forward_byte sb 101);
  Alcotest.(check int) "miss" (-1) (Tso.Store_buffer.forward_byte sb 104)

(* --- store-to-load forwarding against a reference model ------------------- *)

(* Random buffer histories over a small window, so that stores overlap and
   straddle each other and the cache-line boundary at 64. After every step,
   every load in the window is checked against a naive model that shares no
   code with the store buffer: per byte, the newest pending store covering it
   (masked to that byte), else the value already drained to the cache. Bytes
   are those of the 63-bit value, as in [Pmem.Bytes_le]: byte 7 of a width-8
   store is at most 0x7f. *)

type sb_op =
  | St of int * int * int  (* window offset, width, value *)
  | Fl of int
  | Sf
  | Ev  (* evict the oldest entry into the cache *)

let window_base = 52
let window = 24

let sb_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          oneofl [ 1; 2; 4; 8 ] >>= fun width ->
          map2
            (fun off v -> St (off, width, v))
            (int_range 0 (window - width))
            (oneof [ int; int_range (-300) 300; map (fun v -> v lsl 40) small_signed_int ]) );
        (1, map (fun off -> Fl off) (int_range 0 (window - 1)));
        (1, return Sf);
        (4, return Ev);
      ])

let pp_sb_op = function
  | St (off, w, v) -> Printf.sprintf "st%d @%d=%d" (8 * w) off v
  | Fl off -> Printf.sprintf "clflush @%d" off
  | Sf -> "sfence"
  | Ev -> "evict"

let sb_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_sb_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 80) sb_op_gen)

(* The model: pending entries newest first, and the drained bytes. *)
type model = { mutable pending : sb_op list; drained : (int, int) Hashtbl.t }

let model_byte m a =
  let rec newest = function
    | St (off, w, v) :: _ when a >= window_base + off && a < window_base + off + w ->
        let k = a - (window_base + off) in
        Some ((v lsr (8 * k)) land 0xff)
    | _ :: rest -> newest rest
    | [] -> None
  in
  match newest m.pending with
  | Some b -> b
  | None -> Option.value ~default:0 (Hashtbl.find_opt m.drained a)

let model_load m a w =
  let v = ref 0 in
  for k = w - 1 downto 0 do
    v := (!v lsl 8) lor model_byte m (a + k)
  done;
  !v

let model_evict m =
  match List.rev m.pending with
  | [] -> ()
  | oldest :: rest_rev ->
      m.pending <- List.rev rest_rev;
      (match oldest with
      | St (off, w, v) ->
          for k = 0 to w - 1 do
            Hashtbl.replace m.drained (window_base + off + k) ((v lsr (8 * k)) land 0xff)
          done
      | Fl _ | Sf | Ev -> ())

(* A load as the checker context performs it: one scan for the newest
   overlapping store; its masked bytes if it covers the range, else byte-wise
   forwarding over the drained cache. *)
let sb_load sb record a w =
  let memory a = max 0 (Exec.Exec_record.last_store_byte record a) in
  let bytewise forward =
    let v = ref 0 in
    for k = 0 to w - 1 do
      let b = if forward then Tso.Store_buffer.forward_byte sb (a + k) else -1 in
      let b = if b >= 0 then b else memory (a + k) in
      v := !v lor (b lsl (8 * k))
    done;
    !v
  in
  match Tso.Store_buffer.newest_overlap sb a ~width:w with
  | -1 -> bytewise false
  | i -> (
      match Tso.Store_buffer.nth sb i with
      | Tso.Store_buffer.Store { addr; value; width; _ } when addr <= a && a + w <= addr + width
        ->
          Pmem.Bytes_le.truncate ~width:w (value lsr (8 * (a - addr)))
      | _ -> bytewise true)

let prop_forwarding_matches_model =
  QCheck.Test.make ~name:"forwarding = newest-store model" ~count:300 sb_ops_arb (fun ops ->
      let stack, record = mk_stack () in
      let th = Tso.Thread_state.create ~tid:0 in
      let sb = Tso.Thread_state.store_buffer th in
      let m = { pending = []; drained = Hashtbl.create 32 } in
      let check_all step =
        for a = window_base to window_base + window - 1 do
          List.iter
            (fun w ->
              if a + w <= window_base + window then begin
                let expected = model_load m a w and got = sb_load sb record a w in
                if got <> expected then
                  QCheck.Test.fail_reportf "after %s: load%d @%d = %d, model %d" step (8 * w)
                    (a - window_base) got expected
              end)
            [ 1; 2; 4; 8 ]
        done
      in
      List.iter
        (fun op ->
          (match op with
          | St (off, width, value) ->
              Tso.Thread_state.exec_store th (window_base + off) ~value ~width ~label:"st";
              m.pending <- op :: m.pending
          | Fl off ->
              Tso.Thread_state.exec_clflush th (window_base + off) ~label:"fl";
              m.pending <- op :: m.pending
          | Sf ->
              Tso.Thread_state.exec_sfence th;
              m.pending <- op :: m.pending
          | Ev ->
              ignore (Tso.Thread_state.evict_one th stack);
              model_evict m);
          Alcotest.(check int) "buffer length" (List.length m.pending) (Tso.Store_buffer.length sb);
          check_all (pp_sb_op op))
        ops;
      true)

(* --- the forwarding table against the scan it replaced ---------------------- *)

(* The scan-only forwarding of the store buffer before it kept a table: both
   functions walk the whole buffer newest first, here through [nth] instead
   of the ring's slots. *)
module Scan = struct
  let rec overlap_from sb a width i =
    if i < 0 then -1
    else
      match Tso.Store_buffer.nth sb i with
      | Tso.Store_buffer.Store { addr; width = w; _ } when addr < a + width && a < addr + w -> i
      | Store _ | Clflush _ | Clflushopt _ | Sfence -> overlap_from sb a width (i - 1)

  let newest_overlap sb a ~width = overlap_from sb a width (Tso.Store_buffer.length sb - 1)

  let rec byte_from sb a i =
    if i < 0 then -1
    else
      match Tso.Store_buffer.nth sb i with
      | Tso.Store_buffer.Store { addr; value; width; _ } when a >= addr && a < addr + width ->
          (value lsr (8 * (a - addr))) land 0xff
      | Store _ | Clflush _ | Clflushopt _ | Sfence -> byte_from sb a (i - 1)

  let forward_byte sb a = byte_from sb a (Tso.Store_buffer.length sb - 1)
end

(* Three blocks 512 bytes apart, so that their words share classes, each a
   16-byte window across a word and a cache-line boundary. *)
let block_stride = 512
let block_window = 16
let block_addr block off = 56 + (block_stride * block) + off

type fwd_op =
  | Enq of int * Tso.Store_buffer.entry  (* which buffer (0 or 1), entry *)
  | Deq of int
  | Copy of int  (* the other buffer becomes a copy of this one *)
  | Clear of int

let fwd_op_gen =
  QCheck.Gen.(
    let store =
      map3
        (fun block (off, width) value ->
          Tso.Store_buffer.Store { addr = block_addr block off; value; width; label = "st" })
        (int_range 0 2)
        ( int_range 1 8 >>= fun width ->
          map (fun off -> (off, width)) (int_range 0 (block_window - width)) )
        int
    in
    let other =
      oneof
        [
          map
            (fun b -> Tso.Store_buffer.Clflush { addr = block_addr b 0; label = "fl" })
            (int_range 0 2);
          map
            (fun b ->
              Tso.Store_buffer.Clflushopt { addr = block_addr b 8; enq_seq = 0; label = "fo" })
            (int_range 0 2);
          return Tso.Store_buffer.Sfence;
        ]
    in
    int_range 0 1 >>= fun sb ->
    frequency
      [
        (12, map (fun e -> Enq (sb, e)) store);
        (2, map (fun e -> Enq (sb, e)) other);
        (4, return (Deq sb));
        (1, return (Copy sb));
        (1, return (Clear sb));
      ])

let pp_fwd_op = function
  | Enq (sb, Tso.Store_buffer.Store { addr; width; _ }) ->
      Printf.sprintf "%d: st%d @%d" sb (8 * width) addr
  | Enq (sb, Clflush { addr; _ }) -> Printf.sprintf "%d: clflush @%d" sb addr
  | Enq (sb, Clflushopt { addr; _ }) -> Printf.sprintf "%d: clflushopt @%d" sb addr
  | Enq (sb, Sfence) -> Printf.sprintf "%d: sfence" sb
  | Deq sb -> Printf.sprintf "%d: dequeue" sb
  | Copy sb -> Printf.sprintf "%d: copy" sb
  | Clear sb -> Printf.sprintf "%d: clear" sb

(* After every step, both buffers answer every load of the three windows,
   widths 1 to 8, and every byte, as the scan does. *)
let prop_table_is_scan =
  QCheck.Test.make ~name:"forwarding table = newest-first scan" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_fwd_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 120) fwd_op_gen))
    (fun ops ->
      let sbs = [| Tso.Store_buffer.create (); Tso.Store_buffer.create () |] in
      let check step =
        Array.iteri
          (fun k sb ->
            for block = 0 to 2 do
              for off = 0 to block_window - 1 do
                let a = block_addr block off in
                let expected = Scan.forward_byte sb a
                and got = Tso.Store_buffer.forward_byte sb a in
                if got <> expected then
                  QCheck.Test.fail_reportf "after %s: buffer %d forward_byte @%d = %d, scan %d" step
                    k a got expected;
                for width = 1 to min 8 (block_window - off) do
                  let expected = Scan.newest_overlap sb a ~width
                  and got = Tso.Store_buffer.newest_overlap sb a ~width in
                  if got <> expected then
                    QCheck.Test.fail_reportf
                      "after %s: buffer %d newest_overlap @%d/%d = %d, scan %d" step k a width
                      got expected
                done
              done
            done)
          sbs
      in
      List.iter
        (fun op ->
          (match op with
          | Enq (k, e) -> Tso.Store_buffer.enqueue sbs.(k) e
          | Deq k -> ignore (Tso.Store_buffer.dequeue sbs.(k))
          | Copy k -> sbs.(1 - k) <- Tso.Store_buffer.copy sbs.(k)
          | Clear k -> Tso.Store_buffer.clear sbs.(k));
          check (pp_fwd_op op))
        ops;
      true)

let store sb addr ~width value =
  Tso.Store_buffer.enqueue sb (Tso.Store_buffer.Store { addr; value; width; label = "st" })

(* Words 512 bytes apart share a table slot: the newer store to one must not
   hide the older store to the other. *)
let test_two_words_one_class () =
  let sb = Tso.Store_buffer.create () in
  store sb 64 ~width:8 0x1111;
  store sb (64 + 512) ~width:8 0x2222;
  Alcotest.(check int) "older word found" 0 (Tso.Store_buffer.newest_overlap sb 64 ~width:8);
  Alcotest.(check int) "older word forwards" 0x11 (Tso.Store_buffer.forward_byte sb 64);
  Alcotest.(check int) "newer word found" 1
    (Tso.Store_buffer.newest_overlap sb (64 + 512) ~width:8);
  Alcotest.(check int) "newer word forwards" 0x22 (Tso.Store_buffer.forward_byte sb (64 + 512));
  Alcotest.(check int) "third word of the class" (-1)
    (Tso.Store_buffer.newest_overlap sb (64 + 1024) ~width:8)

(* A dequeued store still owns its table slot; its position is below the
   head, so a load finds nothing without scanning the stores left. *)
let test_newest_store_dequeued () =
  let sb = Tso.Store_buffer.create () in
  store sb 64 ~width:8 7;
  store sb 128 ~width:8 9;
  ignore (Tso.Store_buffer.dequeue sb);
  Alcotest.(check int) "dequeued word" (-1) (Tso.Store_buffer.newest_overlap sb 64 ~width:8);
  Alcotest.(check int) "dequeued byte" (-1) (Tso.Store_buffer.forward_byte sb 64);
  Alcotest.(check int) "remaining word" 0 (Tso.Store_buffer.newest_overlap sb 128 ~width:8);
  ignore (Tso.Store_buffer.dequeue sb);
  store sb 192 ~width:1 3;
  Alcotest.(check int) "after refill" (-1) (Tso.Store_buffer.newest_overlap sb 128 ~width:8);
  Tso.Store_buffer.clear sb;
  Alcotest.(check int) "after clear" (-1) (Tso.Store_buffer.forward_byte sb 192)

(* Stores to a copy or to its original never reach the other's table: here
   the copy's later store to a word would otherwise move the original's slot
   for that word back past the original's own newer store to it. *)
let test_copy_owns_table () =
  let sb = Tso.Store_buffer.create () in
  store sb 64 ~width:8 1;
  let c = Tso.Store_buffer.copy sb in
  store sb 192 ~width:8 3;
  store sb 128 ~width:8 4;
  store c 128 ~width:8 5;
  Alcotest.(check int) "original's store" 4 (Tso.Store_buffer.forward_byte sb 128);
  Alcotest.(check int) "original's position" 2 (Tso.Store_buffer.newest_overlap sb 128 ~width:8);
  Alcotest.(check int) "copy's store" 5 (Tso.Store_buffer.forward_byte c 128);
  Alcotest.(check int) "copy's position" 1 (Tso.Store_buffer.newest_overlap c 128 ~width:8);
  Alcotest.(check int) "original's other store absent from the copy" (-1)
    (Tso.Store_buffer.forward_byte c 192);
  Alcotest.(check int) "shared older store" 1 (Tso.Store_buffer.forward_byte c 64)

let test_store_atomic_bytes () =
  (* All bytes of a store take effect with one sequence number. *)
  let stack, record = mk_stack () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:0x0807060504030201 ~width:8 ~label:"w";
  Tso.Thread_state.drain th stack;
  let last_seq addr =
    match List.rev (Exec.Exec_record.visible_stores record addr) with
    | newest :: _ -> newest.Exec.Exec_record.seq
    | [] -> Alcotest.fail "byte not stored"
  in
  let seqs = List.map (fun i -> last_seq (100 + i)) [ 0; 1; 7 ] in
  Alcotest.(check (list int)) "one seq for all bytes" [ 1; 1; 1 ] seqs

let test_clflush_raises_lo () =
  let stack, record = mk_stack () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w";
  Tso.Thread_state.exec_clflush th 100 ~label:"fl";
  Tso.Thread_state.drain th stack;
  Alcotest.(check int) "flush seq" 2 (Exec.Exec_record.line_lo record 100)

let test_clflushopt_waits_for_fence () =
  (* An evicted clflushopt parks in the flush buffer; only a fence applies it. *)
  let stack, record = mk_stack () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w";
  Tso.Thread_state.exec_clflushopt th stack 100 ~label:"opt";
  Tso.Thread_state.drain th stack;
  Alcotest.(check int) "not yet applied" 0
    (Exec.Exec_record.line_lo record 100);
  Alcotest.(check int) "parked in fb" 1 (Tso.Flush_buffer.length (Tso.Thread_state.flush_buffer th));
  Tso.Thread_state.exec_sfence th;
  Tso.Thread_state.drain th stack;
  Alcotest.(check bool) "applied after sfence" true
    (Exec.Exec_record.line_lo record 100 >= 1);
  Alcotest.(check int) "fb empty" 0 (Tso.Flush_buffer.length (Tso.Thread_state.flush_buffer th))

let test_clflushopt_bound_is_preceding_store () =
  (* The applied lower bound covers the same-line store that preceded the
     clflushopt (they cannot reorder), Fig. 8's max computation. *)
  let stack, record = mk_stack () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w1";
  Tso.Thread_state.drain th stack (* store gets seq 1 *);
  Tso.Thread_state.exec_clflushopt th stack 100 ~label:"opt";
  Tso.Thread_state.drain th stack;
  Tso.Thread_state.exec_store th 100 ~value:2 ~width:1 ~label:"w2";
  Tso.Thread_state.drain th stack (* seq 2: must NOT be covered *);
  Tso.Thread_state.exec_sfence th;
  Tso.Thread_state.drain th stack;
  Alcotest.(check int) "bound = first store's seq" 1 (Exec.Exec_record.line_lo record 100)

let test_mfence_immediate () =
  let stack, record = mk_stack () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w";
  Tso.Thread_state.exec_clflushopt th stack 100 ~label:"opt";
  Tso.Thread_state.sync th stack;
  Alcotest.(check bool) "sb drained" true
    (Tso.Store_buffer.is_empty (Tso.Thread_state.store_buffer th));
  Alcotest.(check bool) "flush applied" true
    (Exec.Exec_record.line_lo record 100 >= 1)

let test_reset_clears_everything () =
  let stack, _ = mk_stack () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w";
  Tso.Thread_state.exec_clflushopt th stack 100 ~label:"opt";
  Tso.Thread_state.reset th;
  Alcotest.(check bool) "sb empty" true
    (Tso.Store_buffer.is_empty (Tso.Thread_state.store_buffer th));
  Alcotest.(check bool) "fb empty" true
    (Tso.Flush_buffer.is_empty (Tso.Thread_state.flush_buffer th))

(* The bounds of the clflushopts parked in a thread's flush buffer, oldest
   first (read from a copy, so the buffer is left as it was). *)
let parked_bounds th =
  let bounds = ref [] in
  Tso.Flush_buffer.drain
    (Tso.Flush_buffer.copy (Tso.Thread_state.flush_buffer th))
    (fun e -> bounds := e.Tso.Flush_buffer.bound :: !bounds);
  List.rev !bounds

let test_copy_owns_line_timestamps () =
  (* Fig. 8's t_{τ,line} is per thread copy: a store evicted on the original
     after the copy was taken must not raise the bound of a clflushopt the
     copy evicts. *)
  let stack, _ = mk_stack () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w1";
  Tso.Thread_state.drain th stack (* seq 1 *);
  let cp = Tso.Thread_state.copy th in
  Tso.Thread_state.exec_clflushopt cp stack 100 ~label:"opt" (* enq_seq 1 *);
  Tso.Thread_state.exec_store th 104 ~value:2 ~width:1 ~label:"w2";
  Tso.Thread_state.drain th stack (* seq 2, same line, on the original only *);
  Tso.Thread_state.drain cp stack;
  Alcotest.(check (list int)) "bound from the copy's own timestamp" [ 1 ] (parked_bounds cp);
  Tso.Thread_state.exec_clflushopt th stack 100 ~label:"opt" (* enq_seq 2 *);
  Tso.Thread_state.drain th stack;
  Alcotest.(check (list int)) "the original keeps its newer one" [ 2 ] (parked_bounds th)

let test_reset_forgets_line_timestamps () =
  (* After a reset only [enq_seq] and [fence_ts] bound a clflushopt, while a
     copy taken before the reset keeps its timestamps. The fence and the
     stores before the reset ran on another stack, whose sequence numbers
     ran ahead of the fresh one's. *)
  let stack, _ = mk_stack () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_sfence th;
  for v = 1 to 3 do
    Tso.Thread_state.exec_store th 100 ~value:v ~width:1 ~label:"w"
  done;
  Tso.Thread_state.drain th stack (* the fence at seq 1, the stores at 2-4 *);
  let cp = Tso.Thread_state.copy th in
  Tso.Thread_state.reset th;
  let stack, _ = mk_stack () in
  Tso.Thread_state.exec_clflushopt th stack 100 ~label:"opt1" (* enq_seq 0 *);
  Tso.Thread_state.drain th stack;
  Alcotest.(check (list int)) "nothing left to bound it" [ 0 ] (parked_bounds th);
  Tso.Thread_state.exec_sfence th;
  Tso.Thread_state.exec_clflushopt th stack 100 ~label:"opt2" (* enq_seq 0 *);
  Tso.Thread_state.drain th stack (* the fence at seq 1 *);
  Alcotest.(check (list int)) "bound from the new fence" [ 1 ] (parked_bounds th);
  Tso.Thread_state.exec_clflushopt cp stack 100 ~label:"opt3" (* enq_seq 1 *);
  Tso.Thread_state.drain cp stack;
  Alcotest.(check (list int)) "the copy kept its timestamp" [ 4 ] (parked_bounds cp)

(* --- Table 1, declarative form ---------------------------------------------- *)

let sym e l = Tso.Constraints.(ordering_symbol (preserved ~earlier:e ~later:l))

let test_table1_rows () =
  let open Tso.Constraints in
  (* Spot-check every interesting cell of the paper's table. *)
  Alcotest.(check string) "W-R" "N" (sym Write Read);
  Alcotest.(check string) "W-W" "Y" (sym Write Write);
  Alcotest.(check string) "W-clflushopt" "CL" (sym Write Clflushopt);
  Alcotest.(check string) "W-clflush" "Y" (sym Write Clflush);
  Alcotest.(check string) "sfence-R" "N" (sym Sfence Read);
  Alcotest.(check string) "sfence-clflushopt" "Y" (sym Sfence Clflushopt);
  Alcotest.(check string) "clflushopt-R" "N" (sym Clflushopt Read);
  Alcotest.(check string) "clflushopt-W" "N" (sym Clflushopt Write);
  Alcotest.(check string) "clflushopt-clflushopt" "N" (sym Clflushopt Clflushopt);
  Alcotest.(check string) "clflushopt-RMW" "Y" (sym Clflushopt Rmw);
  Alcotest.(check string) "clflushopt-mfence" "Y" (sym Clflushopt Mfence);
  Alcotest.(check string) "clflushopt-sfence" "Y" (sym Clflushopt Sfence);
  Alcotest.(check string) "clflushopt-clflush" "CL" (sym Clflushopt Clflush);
  Alcotest.(check string) "clflush-clflushopt" "CL" (sym Clflush Clflushopt);
  Alcotest.(check string) "clflush-R" "N" (sym Clflush Read);
  List.iter
    (fun later -> Alcotest.(check string) "Read row all ordered" "Y" (sym Read later))
    all_kinds;
  List.iter
    (fun later -> Alcotest.(check string) "mfence row all ordered" "Y" (sym Mfence later))
    all_kinds;
  List.iter
    (fun later -> Alcotest.(check string) "RMW row all ordered" "Y" (sym Rmw later))
    all_kinds

(* Behavioural check of the table's headline cell: a later store to another
   line may overtake an earlier clflushopt (W column of the clflushopt row),
   while an sfence forbids it. Observed through the applied lower bound. *)
let test_table1_behavioural_clflushopt_store () =
  let stack, record = mk_stack () in
  let th = Tso.Thread_state.create ~tid:0 in
  Tso.Thread_state.exec_store th 100 ~value:1 ~width:1 ~label:"w1";
  Tso.Thread_state.exec_clflushopt th stack 100 ~label:"opt";
  Tso.Thread_state.exec_store th 200 ~value:2 ~width:1 ~label:"other line";
  Tso.Thread_state.drain th stack;
  (* The other-line store took effect in the cache even though the earlier
     clflushopt has not been applied: they reordered. *)
  Alcotest.(check bool) "other store visible" true
    (Exec.Exec_record.visible_stores record 200 <> []);
  Alcotest.(check int) "flush still pending" 0
    (Exec.Exec_record.line_lo record 100)

let () =
  Alcotest.run "tso"
    [
      ( "buffers",
        [
          Alcotest.test_case "fifo" `Quick test_store_buffer_fifo;
          Alcotest.test_case "bypass" `Quick test_store_buffer_bypass;
          QCheck_alcotest.to_alcotest prop_forwarding_matches_model;
          QCheck_alcotest.to_alcotest prop_table_is_scan;
          Alcotest.test_case "two words in one class" `Quick test_two_words_one_class;
          Alcotest.test_case "newest store dequeued" `Quick test_newest_store_dequeued;
          Alcotest.test_case "copy owns its table" `Quick test_copy_owns_table;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "atomic multi-byte store" `Quick test_store_atomic_bytes;
          Alcotest.test_case "clflush raises lo" `Quick test_clflush_raises_lo;
          Alcotest.test_case "clflushopt waits for fence" `Quick test_clflushopt_waits_for_fence;
          Alcotest.test_case "clflushopt bound" `Quick test_clflushopt_bound_is_preceding_store;
          Alcotest.test_case "mfence immediate" `Quick test_mfence_immediate;
          Alcotest.test_case "reset" `Quick test_reset_clears_everything;
          Alcotest.test_case "copy owns line timestamps" `Quick test_copy_owns_line_timestamps;
          Alcotest.test_case "reset forgets line timestamps" `Quick
            test_reset_forgets_line_timestamps;
        ] );
      ( "table1",
        [
          Alcotest.test_case "declarative cells" `Quick test_table1_rows;
          Alcotest.test_case "behavioural reordering" `Quick test_table1_behavioural_clflushopt_store;
        ] );
    ]
