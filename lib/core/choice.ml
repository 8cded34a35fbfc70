type kind = Failure_point | Read_from | Drain

exception Divergence of string

(* [limit] is the exclusive upper bound on [chosen] that this searcher owns:
   normally [num], smaller after the alternatives [limit, num) have been
   donated to another worker via {!split}. *)
type cell = { mutable chosen : int; num : int; kind : kind; mutable limit : int }

type t = {
  mutable cells : cell array;
  mutable len : int;
  mutable cursor : int;
  base : int;  (* frozen prefix length; advance never flips cells below it *)
  created : int array;  (* cumulative fresh decisions, indexed by kind *)
}

let kind_index = function Failure_point -> 0 | Read_from -> 1 | Drain -> 2

let create () = { cells = [||]; len = 0; cursor = 0; base = 0; created = Array.make 3 0 }
let begin_replay t = t.cursor <- 0

let dummy_cell () = { chosen = 0; num = 1; kind = Read_from; limit = 1 }

let grow t =
  let cap = Array.length t.cells in
  let cap' = if cap = 0 then 16 else 2 * cap in
  (* Array.init, not Array.make: [Array.make cap' cell] would alias one
     mutable record across every fresh slot. *)
  let cells = Array.init cap' (fun i -> if i < t.len then t.cells.(i) else dummy_cell ()) in
  t.cells <- cells

let choose t kind n =
  if n <= 0 then invalid_arg "Choice.choose: no alternatives";
  if t.cursor < t.len then begin
    let cell = t.cells.(t.cursor) in
    if cell.num <> n || cell.kind <> kind then
      raise
        (Divergence
           (Printf.sprintf
           "Choice.choose: replay divergence at decision %d (recorded %d alternatives, now %d) — \
            the program under test is nondeterministic"
              t.cursor cell.num n));
    t.cursor <- t.cursor + 1;
    cell.chosen
  end
  else begin
    if t.len = Array.length t.cells then grow t;
    t.created.(kind_index kind) <- t.created.(kind_index kind) + 1;
    t.cells.(t.len) <- { chosen = 0; num = n; kind; limit = n };
    t.len <- t.len + 1;
    t.cursor <- t.cursor + 1;
    0
  end

let advance t =
  t.len <- t.cursor;
  let rec strip () =
    if t.len <= t.base then false
    else
      let cell = t.cells.(t.len - 1) in
      if cell.chosen + 1 >= cell.limit then begin
        t.len <- t.len - 1;
        strip ()
      end
      else begin
        cell.chosen <- cell.chosen + 1;
        true
      end
  in
  strip ()

let depth t = t.cursor
let created t kind = t.created.(kind_index kind)

(* --- snapshot keys: identifying a point on the current decision path ------- *)

let step t i =
  if i < 0 || i >= t.cursor then invalid_arg "Choice.step: not a consumed decision";
  let c = t.cells.(i) in
  (c.kind, c.num, c.chosen)

let consumed t = Array.init t.cursor (fun i -> step t i)

let recorded_matches t key =
  let n = Array.length key in
  n <= t.len
  &&
  let rec ok i =
    i >= n
    ||
    let c = t.cells.(i) in
    let kind, num, chosen = key.(i) in
    c.kind = kind && c.num = num && c.chosen = chosen && ok (i + 1)
  in
  ok 0

let classify_recorded t key =
  let n = Array.length key in
  let rec loop i =
    if i >= n then `Match
    else if i >= t.len then `Keep
    else
      let c = t.cells.(i) in
      let kind, num, chosen = key.(i) in
      if c.kind <> kind || c.num <> num then `Keep
      else if c.chosen = chosen then loop (i + 1)
      else if chosen < c.chosen then `Passed
      else `Keep
  in
  loop 0

let fast_forward t n =
  if n < t.cursor || n > t.len then
    invalid_arg "Choice.fast_forward: target outside the recorded prefix";
  t.cursor <- n

let count_kind t kind =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if t.cells.(i).kind = kind then incr n
  done;
  !n

(* --- prefixes: forking subtrees off an in-progress search ----------------- *)

type prefix_cell = { pkind : kind; pnum : int; pchosen : int; plimit : int }
type prefix = { pfx : prefix_cell array; frozen : int }

let root = { pfx = [||]; frozen = 0 }
let prefix_depth p = Array.length p.pfx
let prefix_frozen p = p.frozen
let prefix_cells p = Array.to_list (Array.map (fun c -> (c.pkind, c.pnum, c.pchosen, c.plimit)) p.pfx)

let valid_cell (num, chosen, limit) = num > 0 && chosen >= 0 && chosen < limit && limit <= num

let prefix_of_cells ~frozen cells =
  let pfx =
    Array.of_list
      (List.map
         (fun (pkind, pnum, pchosen, plimit) ->
           if not (valid_cell (pnum, pchosen, plimit)) then
             invalid_arg "Choice.prefix_of_cells: cell violates 0 <= chosen < limit <= num";
           { pkind; pnum; pchosen; plimit })
         cells)
  in
  if frozen < 0 || frozen > Array.length pfx then
    invalid_arg "Choice.prefix_of_cells: frozen out of range";
  { pfx; frozen }

let kind_char = function Failure_point -> 'F' | Read_from -> 'R' | Drain -> 'D'

let kind_of_char = function
  | 'F' -> Some Failure_point
  | 'R' -> Some Read_from
  | 'D' -> Some Drain
  | _ -> None

let encode_prefix p =
  let b = Buffer.create (16 + (12 * Array.length p.pfx)) in
  Buffer.add_string b (string_of_int p.frozen);
  Array.iter
    (fun c ->
      Buffer.add_char b ';';
      Buffer.add_char b (kind_char c.pkind);
      Buffer.add_string b (Printf.sprintf "%d:%d:%d" c.pnum c.pchosen c.plimit))
    p.pfx;
  Buffer.contents b

let decode_prefix s =
  let cell tok =
    if tok = "" then None
    else
      match kind_of_char tok.[0] with
      | None -> None
      | Some pkind -> (
          match String.split_on_char ':' (String.sub tok 1 (String.length tok - 1)) with
          | [ num; chosen; limit ] -> (
              match (int_of_string_opt num, int_of_string_opt chosen, int_of_string_opt limit) with
              | Some pnum, Some pchosen, Some plimit when valid_cell (pnum, pchosen, plimit) ->
                  Some { pkind; pnum; pchosen; plimit }
              | _ -> None)
          | _ -> None)
  in
  match String.split_on_char ';' s with
  | [] -> None
  | frozen :: rest -> (
      match int_of_string_opt frozen with
      | None -> None
      | Some frozen ->
          let rec all acc = function
            | [] -> Some (List.rev acc)
            | tok :: rest -> ( match cell tok with None -> None | Some c -> all (c :: acc) rest)
          in
          (match all [] rest with
          | Some cells when frozen >= 0 && frozen <= List.length cells ->
              Some { pfx = Array.of_list cells; frozen }
          | _ -> None))

let resume_from_prefix p =
  let n = Array.length p.pfx in
  let cells =
    Array.init (max n 16) (fun i ->
        if i < n then
          let c = p.pfx.(i) in
          { chosen = c.pchosen; num = c.pnum; kind = c.pkind; limit = c.plimit }
        else dummy_cell ())
  in
  { cells; len = n; cursor = 0; base = p.frozen; created = Array.make 3 0 }

(* The still-unexplored subtree of this searcher, as a resumable prefix: the
   recorded decisions pin the next leaf the DFS would replay, and each cell's
   [limit] preserves the sibling alternatives it still owns. Valid whenever a
   fresh replay is about to start (after [advance] or [resume_from_prefix],
   before consuming decisions), where every recorded cell satisfies
   [chosen < limit]. *)
let remainder t =
  prefix_of_cells ~frozen:t.base
    (List.init t.len (fun i ->
         let c = t.cells.(i) in
         (c.kind, c.num, c.chosen, c.limit)))

(* The static mirror of {!split}, operating on an encoded prefix instead of
   an in-progress searcher: carve the sibling alternatives of the shallowest
   wide cell into their own prefix. The fleet coordinator shatters checkpoint
   frontiers with this to make more shards than the interrupted run had
   workers — without replaying anything. *)
let split_prefix p =
  let n = Array.length p.pfx in
  let rec find i =
    if i >= n then None
    else
      let c = p.pfx.(i) in
      (* Cells below [frozen] are replayed verbatim: their other alternatives
         were donated elsewhere long ago and are not this prefix's to give. *)
      if i >= p.frozen && c.pchosen + 1 < c.plimit then Some i else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let c = p.pfx.(i) in
      (* The kept half continues the recorded path: same cells, the wide
         cell's limit shrunk to its current choice. The donated half covers
         the sibling range [chosen+1, limit); deeper recorded cells belong
         only to the [chosen] branch, so they are dropped, and shallower
         cells are pinned — exactly what the dynamic [split] emits. *)
      let kept =
        {
          pfx =
            Array.mapi
              (fun j cc -> if j = i then { cc with plimit = c.pchosen + 1 } else cc)
              p.pfx;
          frozen = p.frozen;
        }
      in
      let donated =
        {
          pfx =
            Array.init (i + 1) (fun j ->
                let cc = p.pfx.(j) in
                if j = i then { cc with pchosen = c.pchosen + 1 }
                else { cc with plimit = cc.pchosen + 1 });
          frozen = i;
        }
      in
      Some (kept, donated)

let split t =
  (* Only cells consumed by the last replay are on the current path; a stale
     suffix beyond the cursor must not be donated. *)
  let bound = min t.len t.cursor in
  let rec find i =
    if i >= bound then None
    else
      let cell = t.cells.(i) in
      if cell.chosen + 1 < cell.limit then Some i else find (i + 1)
  in
  match find t.base with
  | None -> None
  | Some i ->
      let cell = t.cells.(i) in
      let pfx =
        Array.init (i + 1) (fun j ->
            let c = t.cells.(j) in
            if j = i then
              { pkind = c.kind; pnum = c.num; pchosen = c.chosen + 1; plimit = c.limit }
            else { pkind = c.kind; pnum = c.num; pchosen = c.chosen; plimit = c.chosen + 1 })
      in
      cell.limit <- cell.chosen + 1;
      Some { pfx; frozen = i }
