(* Structure-of-arrays slab: values, sequence numbers and labels in parallel
   arrays rather than one boxed record per store. A push is three array
   writes; the binary searches ([count_le], [next_seq_after]) scan a flat
   [int array] of seqs; [truncated_copy] for the snapshot layer is three
   array copies. *)

type t = {
  mutable values : int array;
  mutable seqs : int array;
  mutable labels : string array;
  mutable len : int;
}

let create () = { values = [||]; seqs = [||]; labels = [||]; len = 0 }

(* Array literals allocate inline; [create] then [push] would make six C
   calls ([Array.make], [Array.blit]) for the first entry. *)
let singleton ~value ~seq ~label =
  { values = [| value |]; seqs = [| seq |]; labels = [| label |]; len = 1 }

let length q = q.len

let grow q =
  let cap = Array.length q.seqs in
  let cap' = max 8 (2 * cap) in
  let values = Array.make cap' 0 and seqs = Array.make cap' 0 and labels = Array.make cap' "" in
  Array.blit q.values 0 values 0 q.len;
  Array.blit q.seqs 0 seqs 0 q.len;
  Array.blit q.labels 0 labels 0 q.len;
  q.values <- values;
  q.seqs <- seqs;
  q.labels <- labels

let push q ~value ~seq ~label =
  if q.len > 0 && seq <= q.seqs.(q.len - 1) then
    invalid_arg "Store_queue.push: sequence numbers must increase";
  if q.len = Array.length q.seqs then grow q;
  Array.unsafe_set q.values q.len value;
  Array.unsafe_set q.seqs q.len seq;
  Array.unsafe_set q.labels q.len label;
  q.len <- q.len + 1

let truncated_copy q n =
  let n = min n q.len in
  {
    values = Array.sub q.values 0 n;
    seqs = Array.sub q.seqs 0 n;
    labels = Array.sub q.labels 0 n;
    len = n;
  }

let check_index q i =
  if i < 0 || i >= q.len then invalid_arg "Store_queue: index out of range"

let value_at q i =
  check_index q i;
  Array.unsafe_get q.values i

let seq_at q i =
  check_index q i;
  Array.unsafe_get q.seqs i

let label_at q i =
  check_index q i;
  Array.unsafe_get q.labels i

(* Binary search: number of entries with seq <= s (seqs strictly increase).
   A top-level function rather than a local closure over [seqs] and [s], so
   a search allocates nothing. *)
let rec count_le_in seqs s lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Array.unsafe_get seqs mid <= s then count_le_in seqs s (mid + 1) hi
    else count_le_in seqs s lo mid

(* The newest entry is checked first: recovery mostly reads bytes whose
   every store precedes the line's last flush, or with no writeback bound
   above, and then no search is needed. *)
let count_le q s =
  let n = q.len in
  if n = 0 || Array.unsafe_get q.seqs (n - 1) <= s then n else count_le_in q.seqs s 0 (n - 1)

let next_seq_after q s =
  let i = count_le q s in
  if i >= q.len then Pmem.Line_table.infinity else Array.unsafe_get q.seqs i
