(* Open addressing with linear probing over power-of-two capacities. Keys are
   cache-line numbers (>= 0); -1 marks an empty slot. There are no single-key
   deletions (only [clear], which empties every slot), so probing never needs
   tombstones. *)

let infinity = max_int

type 'a t = {
  mutable keys : int array;
  mutable lo : int array;
  mutable hi : int array;
  mutable data : 'a array;
  empty : 'a;
  mutable count : int;
}

let initial_capacity = 16

(* A payload-only table has [lo = hi = [||]] for its whole life: only the
   paths that write bounds (insertion and [grow]) test for that, so bound
   reads stay branch-free. *)
let make ~bounded ~empty =
  {
    keys = Array.make initial_capacity (-1);
    lo = (if bounded then Array.make initial_capacity 0 else [||]);
    hi = (if bounded then Array.make initial_capacity infinity else [||]);
    data = Array.make initial_capacity empty;
    empty;
    count = 0;
  }

let create ~empty = make ~bounded:true ~empty
let create_payload_only ~empty = make ~bounded:false ~empty
let bounded t = Array.length t.lo > 0

(* [copy] sits on the per-replay snapshot restore path, hence a plain
   [Array.copy] of the payloads rather than [copy_map Fun.id]. A
   payload-only table's empty bound arrays copy to empty ones. *)
let copy t =
  {
    t with
    keys = Array.copy t.keys;
    lo = Array.copy t.lo;
    hi = Array.copy t.hi;
    data = Array.copy t.data;
  }

let copy_map f t = { (copy t) with data = Array.map f t.data }
let length t = t.count

(* [find] re-initialises a slot's bounds when it inserts, so only the keys
   (and the payloads, which would otherwise stay reachable) need resetting. *)
let clear t =
  if t.count > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    Array.fill t.data 0 (Array.length t.data) t.empty;
    t.count <- 0
  end

(* Fibonacci hashing spreads consecutive line numbers, which are the common
   access pattern, across the table. *)
let slot_of t key =
  let mask = Array.length t.keys - 1 in
  (key * 0x2545F4914F6CDD1D) lsr 40 land mask

let rec probe t key i =
  let mask = Array.length t.keys - 1 in
  let k = Array.unsafe_get t.keys i in
  if k = key || k = -1 then i else probe t key ((i + 1) land mask)

let grow t =
  let keys = t.keys and lo = t.lo and hi = t.hi and data = t.data in
  let bounded = bounded t in
  let cap' = 2 * Array.length keys in
  t.keys <- Array.make cap' (-1);
  if bounded then begin
    t.lo <- Array.make cap' 0;
    t.hi <- Array.make cap' infinity
  end;
  t.data <- Array.make cap' t.empty;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = probe t k (slot_of t k) in
        t.keys.(j) <- k;
        if bounded then begin
          t.lo.(j) <- lo.(i);
          t.hi.(j) <- hi.(i)
        end;
        t.data.(j) <- data.(i)
      end)
    keys

let find t key =
  if key < 0 then invalid_arg "Line_table.find: negative line";
  (* Keep load factor under 1/2 so probe chains stay short. *)
  if 2 * (t.count + 1) > Array.length t.keys then grow t;
  let i = probe t key (slot_of t key) in
  if Array.unsafe_get t.keys i = -1 then begin
    t.keys.(i) <- key;
    if bounded t then begin
      t.lo.(i) <- 0;
      t.hi.(i) <- infinity
    end;
    t.data.(i) <- t.empty;
    t.count <- t.count + 1
  end;
  i

(* No insertion, so no grow: the load factor keeps an empty slot to stop the
   probe. A negative key stops at an empty slot too. *)
let find_existing t key =
  let i = probe t key (slot_of t key) in
  if key >= 0 && Array.unsafe_get t.keys i = key then i else -1

let lo t i = Array.unsafe_get t.lo i
let hi t i = Array.unsafe_get t.hi i
let data t i = Array.unsafe_get t.data i
let set_data t i d = Array.unsafe_set t.data i d
let raise_lo t i s = if s > Array.unsafe_get t.lo i then Array.unsafe_set t.lo i s
let lower_hi t i s = if s < Array.unsafe_get t.hi i then Array.unsafe_set t.hi i s

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i k -> if k >= 0 then acc := f k (Array.unsafe_get t.data i) !acc) t.keys;
  !acc
