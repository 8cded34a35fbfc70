(* Records are indexed by id: a record's id is its position in the stack,
   0 being the initial image, so [prev] and [nth] are array reads. *)
type t = {
  mutable execs : Exec_record.t array;  (* [execs.(i)] has id [i], for i <= top *)
  mutable top : int;  (* id of the top record *)
  mutable seq : int;  (* σ_curr: the last sequence number drawn *)
}

let top s = Array.unsafe_get s.execs s.top

let next_seq s =
  s.seq <- s.seq + 1;
  s.seq

let cur_seq s = s.seq

let nth s i =
  if i < 0 || i > s.top then invalid_arg "Exec_stack.nth: no such record";
  Array.unsafe_get s.execs i

let prev s e =
  let i = Exec_record.id e in
  if i < 1 || i > s.top then invalid_arg "Exec_stack.prev: no predecessor";
  Array.unsafe_get s.execs (i - 1)

(* Unused cells hold the initial image, so dropped records are not kept
   alive. *)
let reserve s n =
  if n > Array.length s.execs then begin
    let execs = Array.make (max n (2 * Array.length s.execs)) s.execs.(0) in
    Array.blit s.execs 0 execs 0 (s.top + 1);
    s.execs <- execs
  end

let push_fresh s =
  let id = s.top + 1 in
  reserve s (id + 1);
  let e = Exec_record.create ~id in
  s.execs.(id) <- e;
  s.top <- id;
  e

(* The records fill the array bottom-up, as their ids count up from the
   initial image; unused cells hold the initial image, as in [reserve]. *)
let of_records ~seq records =
  let n = List.length records in
  if n = 0 then invalid_arg "Exec_stack.of_records: empty record list";
  let bottom_up = List.rev records in
  let initial = List.hd bottom_up in
  if not (Exec_record.is_initial initial) then
    invalid_arg "Exec_stack.of_records: bottom record must be the initial image";
  let execs = Array.make (max 4 n) initial in
  List.iteri
    (fun i e ->
      let id = Exec_record.id e in
      if id <> i then
        invalid_arg (Printf.sprintf "Exec_stack.of_records: record id %d where %d expected" id i);
      execs.(i) <- e)
    bottom_up;
  { execs; top = n - 1; seq }

let create () = of_records ~seq:0 [ Exec_record.create ~id:1; Exec_record.initial () ]

let depth s = s.top

let to_list s =
  let rec build i acc = if i > s.top then acc else build (i + 1) (s.execs.(i) :: acc) in
  build 0 []
