(* Records are indexed by id: a record's id is its position in the stack,
   0 being the initial image, so [prev] and [nth] are array reads. *)
type t = {
  mutable execs : Exec_record.t array;  (* [execs.(i)] has id [i], for i <= top *)
  mutable top : int;  (* id of the top record *)
  mutable seq : int;  (* σ_curr: the last sequence number drawn *)
}

let create () =
  let initial = Exec_record.initial () in
  let execs = Array.make 4 initial in
  execs.(1) <- Exec_record.create ~id:1;
  { execs; top = 1; seq = 0 }

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

let restore s ~seq records =
  let n = List.length records in
  if n = 0 then invalid_arg "Exec_stack.restore: empty record list";
  let bottom_up = List.rev records in
  if not (Exec_record.is_initial (List.hd bottom_up)) then
    invalid_arg "Exec_stack.restore: bottom record must be the initial image";
  List.iteri
    (fun i e ->
      let id = Exec_record.id e in
      if id <> i then
        invalid_arg (Printf.sprintf "Exec_stack.restore: record id %d where %d expected" id i))
    bottom_up;
  reserve s n;
  List.iteri (fun i e -> s.execs.(i) <- e) bottom_up;
  Array.fill s.execs n (Array.length s.execs - n) s.execs.(0);
  s.top <- n - 1;
  s.seq <- seq

let depth s = s.top

let to_list s =
  let rec build i acc = if i > s.top then acc else build (i + 1) (s.execs.(i) :: acc) in
  build 0 []
