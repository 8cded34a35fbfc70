type sink = { mutable buf : Bytes.t; mutable len : int }

let sink ?(initial = 4096) () = { buf = Bytes.create (max 16 initial); len = 0 }
let length s = s.len

let ensure s n =
  let cap = Bytes.length s.buf in
  if s.len + n > cap then begin
    let cap' = ref (2 * cap) in
    while s.len + n > !cap' do
      cap' := 2 * !cap'
    done;
    let buf = Bytes.create !cap' in
    Bytes.blit s.buf 0 buf 0 s.len;
    s.buf <- buf
  end

(* Ints are zigzag + LEB128: small magnitudes (the overwhelming case —
   counts, widths, tids, lengths) cost one byte instead of eight. The encoder always emits the minimal form, so the
   encoding stays injective and self-delimiting. *)
let int s v =
  ensure s 9;
  (* zigzag: bijective on the native int range, small |v| -> small word *)
  let z = ref ((v lsl 1) lxor (v asr 62)) in
  let buf = s.buf in
  let len = ref s.len in
  while !z lsr 7 <> 0 do
    Bytes.unsafe_set buf !len (Char.unsafe_chr (0x80 lor (!z land 0x7f)));
    incr len;
    z := !z lsr 7
  done;
  Bytes.unsafe_set buf !len (Char.unsafe_chr !z);
  s.len <- !len + 1

let bool s b =
  ensure s 1;
  Bytes.unsafe_set s.buf s.len (if b then '\001' else '\000');
  s.len <- s.len + 1

let float s f =
  ensure s 8;
  Bytes.set_int64_le s.buf s.len (Int64.bits_of_float f);
  s.len <- s.len + 8

let string s str =
  let n = String.length str in
  int s n;
  ensure s n;
  Bytes.blit_string str 0 s.buf s.len n;
  s.len <- s.len + n

let option f s = function
  | None -> bool s false
  | Some v ->
      bool s true;
      f s v

let list f s xs =
  int s (List.length xs);
  List.iter (f s) xs

let contents s = Bytes.sub_string s.buf 0 s.len
let crc s = Crc32.digest_subbytes s.buf ~pos:0 ~len:s.len

(* --- decoding ------------------------------------------------------------- *)

type src = { data : string; mutable pos : int }

exception Corrupt of string

let src data = { data; pos = 0 }

let need r n =
  if r.pos + n > String.length r.data then raise (Corrupt "truncated input")

let rd_int r =
  let z = ref 0 in
  let shift = ref 0 in
  let continue = ref true in
  while !continue do
    (* 9 septets cover the 63-bit range; a continuation past that is noise *)
    if !shift > 56 then raise (Corrupt "varint too long");
    need r 1;
    let b = Char.code (String.unsafe_get r.data r.pos) in
    r.pos <- r.pos + 1;
    z := !z lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
  done;
  (!z lsr 1) lxor - (!z land 1)

let rd_bool r =
  need r 1;
  let c = r.data.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\000' -> false
  | '\001' -> true
  | _ -> raise (Corrupt "invalid boolean byte")

let rd_float r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let rd_string r =
  let n = rd_int r in
  if n < 0 then raise (Corrupt "negative string length");
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let rd_option f r = if rd_bool r then Some (f r) else None

let rd_list f r =
  let n = rd_int r in
  if n < 0 then raise (Corrupt "negative list length");
  List.init n (fun _ -> f r)

let expect_end r =
  if r.pos <> String.length r.data then raise (Corrupt "trailing bytes")
