(* Open addressing with linear probing over power-of-two capacities. Keys are
   cache-line numbers (>= 0); -1 marks an empty slot. There are no deletions,
   so probing never needs tombstones. *)

type t = {
  mutable keys : int array;
  mutable lo : int array;
  mutable hi : int array;
  mutable count : int;
}

let initial_capacity = 16

let create () =
  {
    keys = Array.make initial_capacity (-1);
    lo = Array.make initial_capacity 0;
    hi = Array.make initial_capacity Interval.infinity;
    count = 0;
  }

let copy t =
  { keys = Array.copy t.keys; lo = Array.copy t.lo; hi = Array.copy t.hi; count = t.count }

let length t = t.count

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
  let keys = t.keys and lo = t.lo and hi = t.hi in
  let cap' = 2 * Array.length keys in
  t.keys <- Array.make cap' (-1);
  t.lo <- Array.make cap' 0;
  t.hi <- Array.make cap' Interval.infinity;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = probe t k (slot_of t k) in
        t.keys.(j) <- k;
        t.lo.(j) <- lo.(i);
        t.hi.(j) <- hi.(i)
      end)
    keys

let find t key =
  if key < 0 then invalid_arg "Line_table.find: negative line";
  (* Keep load factor under 1/2 so probe chains stay short. *)
  if 2 * (t.count + 1) > Array.length t.keys then grow t;
  let i = probe t key (slot_of t key) in
  if Array.unsafe_get t.keys i = -1 then begin
    t.keys.(i) <- key;
    t.lo.(i) <- 0;
    t.hi.(i) <- Interval.infinity;
    t.count <- t.count + 1
  end;
  i

let lo t i = Array.unsafe_get t.lo i
let hi t i = Array.unsafe_get t.hi i
let raise_lo t i s = if s > Array.unsafe_get t.lo i then Array.unsafe_set t.lo i s
let lower_hi t i s = if s < Array.unsafe_get t.hi i then Array.unsafe_set t.hi i s
