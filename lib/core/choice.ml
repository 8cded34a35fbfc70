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
  mutable base : int;  (* frozen prefix length; advance never flips cells below it *)
  created : int array;  (* cumulative fresh decisions, indexed by kind *)
}

let kind_index = function Failure_point -> 0 | Read_from -> 1 | Drain -> 2

(* Fills unused slots and stands for the root in depth-0 points; never
   mutated, since only recorded cells are. *)
let nil = { chosen = 0; num = 1; kind = Read_from; limit = 1 }

let create () = { cells = [||]; len = 0; cursor = 0; base = 0; created = Array.make 3 0 }
let begin_replay t = t.cursor <- 0

let reserve t n =
  let cap = Array.length t.cells in
  if n > cap then begin
    let cells = Array.make (max n (max 16 (2 * cap))) nil in
    Array.blit t.cells 0 cells 0 t.len;
    t.cells <- cells
  end

let choose t kind n =
  if n <= 0 then invalid_arg "Choice.choose: no alternatives";
  if t.cursor < t.len then begin
    let cell = t.cells.(t.cursor) in
    if cell.num <> n || cell.kind <> kind then
      raise
        (Divergence
           (Printf.sprintf
           "Choice.choose: replay divergence at decision %d (recorded %d alternatives, now %d) — \
            the program under test is nondeterministic, or the replayed prefix was recorded for \
            different code"
              t.cursor cell.num n));
    t.cursor <- t.cursor + 1;
    cell.chosen
  end
  else begin
    reserve t (t.len + 1);
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

(* --- points: positions on the decision path -------------------------------- *)

(* [advance] only strips the deepest cells or bumps the deepest survivor in
   place, and [restart] keeps the records it shares with the new path, so
   while [cell] is still the record at index [depth - 1], every shallower
   decision is the one taken when the point was made. *)
type point = { depth : int; cell : cell; alt : int }

let point ?alt t =
  if t.cursor = 0 then { depth = 0; cell = nil; alt = 0 }
  else
    let cell = t.cells.(t.cursor - 1) in
    { depth = t.cursor; cell; alt = Option.value alt ~default:cell.chosen }

let point_depth p = p.depth
let same_point p q = p.depth = q.depth && p.cell == q.cell && p.alt = q.alt

let status t p =
  if p.depth = 0 then `On_path
  else if p.depth > t.len || t.cells.(p.depth - 1) != p.cell then `Dead
  else if p.cell.chosen = p.alt then `On_path
  else if p.cell.chosen < p.alt then `Ahead
  else `Dead

let fast_forward t n =
  if n < t.cursor || n > t.len then
    invalid_arg "Choice.fast_forward: target outside the recorded prefix";
  t.cursor <- n

(* --- prefixes: forking subtrees off an in-progress search ----------------- *)

(* Prefix cells are private records that nothing mutates: [restart] copies
   them again before a searcher records into them. *)
type prefix = { pfx : cell array; frozen : int }

let root = { pfx = [||]; frozen = 0 }
let prefix_depth p = Array.length p.pfx
let prefix_frozen p = p.frozen
let prefix_cells p = Array.to_list (Array.map (fun c -> (c.kind, c.num, c.chosen, c.limit)) p.pfx)

let valid_cell (num, chosen, limit) = num > 0 && chosen >= 0 && chosen < limit && limit <= num

let prefix_of_cells ~frozen cells =
  let pfx =
    Array.of_list
      (List.map
         (fun (kind, num, chosen, limit) ->
           if not (valid_cell (num, chosen, limit)) then
             invalid_arg "Choice.prefix_of_cells: cell violates 0 <= chosen < limit <= num";
           { kind; num; chosen; limit })
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
      Buffer.add_char b (kind_char c.kind);
      Buffer.add_string b (Printf.sprintf "%d:%d:%d" c.num c.chosen c.limit))
    p.pfx;
  Buffer.contents b

let decode_prefix s =
  let cell tok =
    if tok = "" then None
    else
      match kind_of_char tok.[0] with
      | None -> None
      | Some kind -> (
          match String.split_on_char ':' (String.sub tok 1 (String.length tok - 1)) with
          | [ num; chosen; limit ] -> (
              match (int_of_string_opt num, int_of_string_opt chosen, int_of_string_opt limit) with
              | Some num, Some chosen, Some limit when valid_cell (num, chosen, limit) ->
                  Some { kind; num; chosen; limit }
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

let copy c = { c with chosen = c.chosen }

(* Keeping the shared records keeps every point on them valid, so a worker's
   snapshots carry over from one subtree task to the next. The deepest kept
   record may move forward to the prefix's alternative in place, as
   [advance] would; moving it backward would revive points already reported
   [`Dead], so such a cell is copied like the rest. *)
let restart t p =
  let n = Array.length p.pfx in
  reserve t n;
  let rec keep i =
    if i >= n || i >= t.len then i
    else
      let c = t.cells.(i) and q = p.pfx.(i) in
      if c.kind <> q.kind || c.num <> q.num || c.chosen > q.chosen then i
      else begin
        let moved = c.chosen < q.chosen in
        c.chosen <- q.chosen;
        c.limit <- q.limit;
        if moved then i + 1 else keep (i + 1)
      end
  in
  for i = keep 0 to n - 1 do
    t.cells.(i) <- copy p.pfx.(i)
  done;
  t.len <- n;
  t.cursor <- 0;
  t.base <- p.frozen

(* The still-unexplored subtree of this searcher, as a resumable prefix: the
   recorded decisions pin the next leaf the DFS would replay, and each cell's
   [limit] preserves the sibling alternatives it still owns. Valid whenever a
   fresh replay is about to start (after [advance] or [restart], before
   consuming decisions), where every recorded cell satisfies
   [chosen < limit]. *)
let remainder t =
  prefix_of_cells ~frozen:t.base
    (List.init t.len (fun i ->
         let c = t.cells.(i) in
         (c.kind, c.num, c.chosen, c.limit)))

(* Carve the sibling alternatives of the shallowest wide cell into their own
   prefix. The fleet coordinator shatters checkpoint frontiers with this to
   make more shards than the interrupted run had workers, and [split] applies
   it to a searcher's current path. *)
let split_prefix p =
  let n = Array.length p.pfx in
  let rec find i =
    if i >= n then None
    else
      let c = p.pfx.(i) in
      (* Cells below [frozen] are replayed verbatim: their other alternatives
         were donated elsewhere long ago and are not this prefix's to give. *)
      if i >= p.frozen && c.chosen + 1 < c.limit then Some i else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let c = p.pfx.(i) in
      (* The kept half continues the recorded path: same cells, the wide
         cell's limit shrunk to its current choice. The donated half covers
         the sibling range [chosen+1, limit); deeper recorded cells belong
         only to the [chosen] branch, so they are dropped, and shallower
         cells are pinned. Every donated cell is a fresh record. *)
      let kept =
        {
          p with
          pfx = Array.mapi (fun j cc -> if j = i then { cc with limit = c.chosen + 1 } else cc) p.pfx;
        }
      in
      let donated =
        {
          pfx =
            Array.init (i + 1) (fun j ->
                let cc = p.pfx.(j) in
                if j = i then { cc with chosen = c.chosen + 1 }
                else { cc with limit = cc.chosen + 1 });
          frozen = i;
        }
      in
      Some (kept, donated)

let split t =
  (* Only cells consumed by the last replay are on the current path; a stale
     suffix beyond the cursor must not be donated. The view shares the live
     cells, so its kept half is dropped and the live cell shrinks instead. *)
  let path = { pfx = Array.sub t.cells 0 (min t.len t.cursor); frozen = t.base } in
  match split_prefix path with
  | None -> None
  | Some (_, donated) ->
      let cell = t.cells.(prefix_depth donated - 1) in
      cell.limit <- cell.chosen + 1;
      Some donated
