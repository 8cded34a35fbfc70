type t = {
  mutable execs : Exec_record.t list;  (* head = top *)
  mutable seq : int;  (* σ_curr: the last sequence number drawn *)
}

let create () = { execs = [ Exec_record.create ~id:1; Exec_record.initial () ]; seq = 0 }

let top s =
  match s.execs with
  | e :: _ -> e
  | [] -> assert false

let next_seq s =
  s.seq <- s.seq + 1;
  s.seq

let cur_seq s = s.seq

let prev s e =
  let rec loop = function
    | x :: (below :: _ as rest) ->
        if Exec_record.id x = Exec_record.id e then below else loop rest
    | [ _ ] | [] -> invalid_arg "Exec_stack.prev: no predecessor"
  in
  loop s.execs

let push_fresh s =
  let e = Exec_record.create ~id:(Exec_record.id (top s) + 1) in
  s.execs <- e :: s.execs;
  e

let restore s ~seq records =
  match records with
  | [] -> invalid_arg "Exec_stack.restore: empty record list"
  | _ ->
      let bottom = List.nth records (List.length records - 1) in
      if not (Exec_record.is_initial bottom) then
        invalid_arg "Exec_stack.restore: bottom record must be the initial image";
      s.execs <- records;
      s.seq <- seq

let depth s = List.length s.execs - 1
let to_list s = s.execs
