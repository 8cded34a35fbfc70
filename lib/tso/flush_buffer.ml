type entry = { addr : Pmem.Addr.t; bound : int }

type t = { q : entry Queue.t }

let create () = { q = Queue.create () }
let is_empty fb = Queue.is_empty fb.q
let length fb = Queue.length fb.q
let add fb e = Queue.add e fb.q

let drain fb f =
  let rec loop () =
    match Queue.take_opt fb.q with
    | None -> ()
    | Some e ->
        f e;
        loop ()
  in
  loop ()

let copy fb = { q = Queue.copy fb.q }
let clear fb = Queue.clear fb.q
