(* Length-prefixed Wire frames over pipe file descriptors — the coordinator
   / worker protocol. See transport.mli for the framing rationale. *)

module Wire = Pmem.Wire

exception Closed of string

type msg =
  | Heartbeat of { shard : int; beats : int }
  | Assign of { shard : int; attempt : int; payload : string }
  | Preempt
  | Result of { shard : int; payload : string }
  | Refused of { shard : int; reason : string }

(* A frame a peer could construct by accident must never be mistaken for a
   huge allocation request: a shard or result payload is a checkpoint (KBs
   to a few MBs); anything beyond this is a corrupt stream. *)
let max_frame = 256 * 1024 * 1024

let encode_msg b = function
  | Heartbeat { shard; beats } ->
      Wire.int b 0;
      Wire.int b shard;
      Wire.int b beats
  | Assign { shard; attempt; payload } ->
      Wire.int b 1;
      Wire.int b shard;
      Wire.int b attempt;
      Wire.string b payload
  | Preempt -> Wire.int b 2
  | Result { shard; payload } ->
      Wire.int b 3;
      Wire.int b shard;
      Wire.string b payload
  | Refused { shard; reason } ->
      Wire.int b 4;
      Wire.int b shard;
      Wire.string b reason

let decode_msg payload =
  let s = Wire.src payload in
  let msg =
    match Wire.rd_int s with
    | 0 ->
        let shard = Wire.rd_int s in
        let beats = Wire.rd_int s in
        Heartbeat { shard; beats }
    | 1 ->
        let shard = Wire.rd_int s in
        let attempt = Wire.rd_int s in
        let payload = Wire.rd_string s in
        Assign { shard; attempt; payload }
    | 2 -> Preempt
    | 3 ->
        let shard = Wire.rd_int s in
        let payload = Wire.rd_string s in
        Result { shard; payload }
    | 4 ->
        let shard = Wire.rd_int s in
        let reason = Wire.rd_string s in
        Refused { shard; reason }
    | n -> raise (Wire.Corrupt (Printf.sprintf "unknown message tag %d" n))
  in
  Wire.expect_end s;
  msg

(* Frame: 4-byte big-endian payload length, 4-byte big-endian CRC-32 of the
   payload, payload bytes. The CRC is defense in depth — a worker SIGKILLed
   mid-write leaves a short read (caught by length), but a corrupted stream
   must never decode into a plausible wrong message. *)

let be32 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set buf (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 3) (Char.chr (v land 0xff))

let rd_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let frame msg =
  let b = Wire.sink ~initial:256 () in
  encode_msg b msg;
  let payload = Wire.contents b in
  let n = String.length payload in
  let out = Bytes.create (8 + n) in
  be32 out 0 n;
  be32 out 4 (Pmem.Crc32.digest_string payload);
  Bytes.blit_string payload 0 out 8 n;
  out

let write_frames fd buf =
  let len = Bytes.length buf in
  let rec go off =
    if off < len then begin
      let n =
        try Unix.write fd buf off (len - off) with
        | Unix.Unix_error ((Unix.EPIPE | Unix.EBADF | Unix.ECONNRESET), _, _) ->
            raise (Closed "peer closed the pipe")
        | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + n)
    end
  in
  go 0

let write fd msg = write_frames fd (frame msg)
let write_all fd msgs = write_frames fd (Bytes.concat Bytes.empty (List.map frame msgs))

(* --- non-blocking buffered reader (both sides) ---------------------------- *)

type reader = {
  fd : Unix.file_descr;
  mutable pending : string;  (* unparsed bytes, frame-aligned at offset 0 *)
  mutable eof : bool;
}

let reader fd =
  Unix.set_nonblock fd;
  { fd; pending = ""; eof = false }

let reader_fd r = r.fd
let at_eof r = r.eof

let close_reader r =
  r.eof <- true;
  try Unix.close r.fd with Unix.Unix_error _ -> ()

let drain r =
  if r.eof then []
  else begin
    let chunk = Bytes.create 65536 in
    let rec pull acc =
      match Unix.read r.fd chunk 0 (Bytes.length chunk) with
      | 0 ->
          r.eof <- true;
          acc
      | n -> pull (Bytes.sub_string chunk 0 n :: acc)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> acc
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pull acc
      | exception Unix.Unix_error ((Unix.EBADF | Unix.ECONNRESET), _, _) ->
          r.eof <- true;
          acc
    in
    let s = String.concat "" (List.rev (pull [ r.pending ])) in
    (* A bad length, checksum or body poisons the stream: drop everything
       and report EOF — the supervisor treats it as a dead worker and
       requeues the shard. *)
    let poison acc =
      r.eof <- true;
      r.pending <- "";
      List.rev acc
    in
    let rec parse acc off =
      let avail = String.length s - off in
      let len = if avail >= 8 then rd_be32 s off else 0 in
      if len > max_frame then poison acc
      else if avail < 8 + len then begin
        (* A partial frame waits for the next call, unless the stream has
           ended: then it can never complete. *)
        r.pending <- (if r.eof then "" else String.sub s off avail);
        List.rev acc
      end
      else
        let body = String.sub s (off + 8) len in
        if Pmem.Crc32.digest_string body <> rd_be32 s (off + 4) then poison acc
        else
          match decode_msg body with
          | m -> parse (m :: acc) (off + 8 + len)
          | exception Wire.Corrupt _ -> poison acc
    in
    parse [] 0
  end
