(* The ring holds the boxed events the analysis engine already receives, so
   adding one is a store into an array slot. The snapshot layer copies the
   whole ring at a capture and a restored replay starts from another copy;
   the events themselves are immutable and shared between copies. *)

type t = {
  ring : Analysis.Event.t array;
  depth : int;
  mutable next : int;  (* slot index of the next write, in [0, depth) *)
  mutable count : int;
  mutable dropped : int;
}

let create ~depth =
  let depth = max 0 depth in
  { ring = Array.make depth Analysis.Event.End_execution; depth; next = 0; count = 0; dropped = 0 }

let enabled t = t.depth > 0

let add t ev =
  if t.depth > 0 then begin
    if t.count = t.depth then t.dropped <- t.dropped + 1 else t.count <- t.count + 1;
    t.ring.(t.next) <- ev;
    (* next < depth always, so wrap-around is a compare, not a div. *)
    let next = t.next + 1 in
    t.next <- (if next = t.depth then 0 else next)
  end

let copy t = { t with ring = Array.copy t.ring }

let clear t =
  t.next <- 0;
  t.count <- 0;
  t.dropped <- 0

let dropped t = t.dropped

let events t =
  if t.depth = 0 then []
  else
    let start = t.next - t.count + t.depth in
    List.init t.count (fun i -> t.ring.((start + i) mod t.depth))
