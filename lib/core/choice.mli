(** The replay DFS over nondeterministic choices.

    Jaaru explores a failure scenario by re-running it from scratch under a
    recorded list of decisions (stateless-model-checking replay — the
    substitute for the paper's fork-based rollback). Each nondeterministic
    point in an execution — inject a failure or not, which store a load reads
    from, how much of the store buffer drains at a crash — consults this
    stack: decisions inside the recorded prefix are replayed, fresh ones
    default to alternative 0 and are recorded. After each replay, {!advance}
    flips the deepest unexhausted decision, depth-first, until the whole tree
    has been visited. *)

type kind = Failure_point | Read_from | Drain
(** What a decision was about — kept for statistics and debug output. *)

exception Divergence of string
(** A replayed decision saw a different shape than when it was recorded —
    the program under test is nondeterministic (e.g. it consulted wall-clock
    time or hash-table iteration order). *)

type t

val create : unit -> t

val begin_replay : t -> unit
(** Rewinds the cursor to the start of the recorded prefix. *)

val choose : t -> kind -> int -> int
(** [choose t kind n] returns the alternative (in [0, n-1]) for the decision
    at the cursor. Raises [Invalid_argument] on [n <= 0] and {!Divergence}
    when a replayed decision sees a different [kind] or [n] than when it was
    recorded. *)

val advance : t -> bool
(** Truncates the record to the decisions actually consumed by the last
    replay, then steps to the next unexplored leaf. [false] when the search
    space is exhausted. *)

val depth : t -> int
(** Decisions consumed by the current replay so far. *)

val count_kind : t -> kind -> int
(** Decisions of a kind in the current record (diagnostic). *)

val created : t -> kind -> int
(** Cumulative count of fresh decisions of a kind created over the whole
    exploration (never decreases on truncation). Decisions replayed out of a
    resumed prefix are {e not} counted again — summing [created] across the
    workers of a parallel exploration equals the sequential count. *)

(** {1 Snapshot keys}

    A snapshot of the state at a decision point is identified by the exact
    decisions that led there: any replay whose recorded decisions begin with
    the same [(kind, num, chosen)] triples deterministically reaches the same
    state, so it can skip re-executing the program up to that point. *)

val step : t -> int -> kind * int * int
(** [(kind, num, chosen)] of consumed decision [i]. Raises
    [Invalid_argument] unless [0 <= i < depth t]. *)

val consumed : t -> (kind * int * int) array
(** The decisions consumed by the replay so far, shallowest first — the
    snapshot key of the current point. *)

val recorded_matches : t -> (kind * int * int) array -> bool
(** Whether the recorded decisions of the upcoming replay begin with exactly
    the given key — i.e. this replay is guaranteed to pass through the
    key's decision point. Call after {!begin_replay}, before replaying. *)

val classify_recorded : t -> (kind * int * int) array -> [ `Match | `Passed | `Keep ]
(** Like {!recorded_matches}, but also detects keys the depth-first search
    has left behind. [`Match]: the recorded decisions begin with the key.
    [`Passed]: at the first divergence the key's chosen alternative is
    smaller than the recorded one (same kind and width) — since {!advance}
    is a lexicographic increment, no future replay of this searcher can
    match, and a cache may drop the key's snapshot. [`Keep]: neither, e.g.
    the key lies ahead of the current path. Call after {!begin_replay}. *)

val fast_forward : t -> int -> unit
(** Moves the cursor to recorded decision [n] without consuming the cells in
    between — the replay resumes as if the first [n] decisions had been
    taken. Only meaningful after {!recorded_matches} succeeded on a key of
    length [n]. Raises [Invalid_argument] when [n] is behind the cursor or
    beyond the recorded prefix. *)

(** {1 Prefixes: forking subtrees for parallel exploration}

    A prefix pins the first decisions of an execution: cells below [frozen]
    are replayed verbatim and never advanced; the remaining cells (in
    practice exactly one, the forked decision) start at [chosen] and are
    advanced up to [limit - 1] as usual. A searcher resumed from a prefix
    therefore explores exactly the subtrees of the alternatives
    [\[chosen, limit)] of the forked decision — the other side of a
    {!split}. *)

type prefix

val root : prefix
(** The empty prefix: resuming from it is a full sequential exploration. *)

val prefix_depth : prefix -> int
(** Number of pinned cells; [0] only for {!root}. *)

val prefix_frozen : prefix -> int
(** Number of leading cells that {!advance} may never flip. *)

val prefix_cells : prefix -> (kind * int * int * int) list
(** [(kind, num, chosen, limit)] per cell, shallowest first. *)

val prefix_of_cells : frozen:int -> (kind * int * int * int) list -> prefix
(** Inverse of {!prefix_cells}. Raises [Invalid_argument] unless every cell
    satisfies [0 <= chosen < limit <= num] and [0 <= frozen <= length]. *)

val encode_prefix : prefix -> string
(** A compact printable encoding, e.g. ["2;F2:0:1;R3:1:2;D4:2:4"] — suitable
    for handing subtree tasks to another process. *)

val decode_prefix : string -> prefix option
(** Inverse of {!encode_prefix}; [None] on malformed or invalid input. *)

val resume_from_prefix : prefix -> t
(** A fresh searcher over the subtree the prefix describes. Replays the
    pinned decisions first, then explores depth-first exactly as {!create}
    would, never flipping a frozen cell. [resume_from_prefix root] is
    equivalent to {!create}. *)

val remainder : t -> prefix
(** The searcher's entire unexplored subtree as a resumable prefix:
    [resume_from_prefix (remainder t)] explores exactly the leaves [t] had
    left. The basis of checkpointing — a worker asked to stop cooperatively
    captures [remainder] instead of replaying. Call it where a fresh replay
    would start (after a successful {!advance}, or on a just-resumed
    searcher before any replay); raises [Invalid_argument] if some recorded
    cell is exhausted ([chosen >= limit]), which cannot happen at those
    points. [remainder] of a fresh {!create} (or of [resume_from_prefix
    root]) is {!root}. *)

val split_prefix : prefix -> (prefix * prefix) option
(** The static counterpart of {!split}: carves the sibling alternatives of
    the shallowest non-frozen wide cell ([chosen + 1 < limit]) out of an
    encoded prefix without replaying anything. [Some (kept, donated)] covers
    exactly the subtree of the input — [kept] continues the recorded path
    with the wide cell's range shrunk to its current choice, [donated] pins
    the path up to that cell and owns the alternatives [\[chosen+1, limit)] —
    and the two are disjoint. [None] when no cell is splittable (the prefix
    pins a single undived path, e.g. {!root} or a fully singleton prefix).
    The fleet coordinator uses this to shatter a checkpoint frontier into
    more shards than the run that wrote it had workers. *)

val split : t -> prefix option
(** Donates the unexplored sibling range of the shallowest splittable
    decision: picks the shallowest non-frozen on-path cell with alternatives
    [chosen + 1 < limit], returns a prefix covering [\[chosen + 1, limit)] of
    that cell, and shrinks the local [limit] so this searcher never visits
    the donated subtrees. [None] when the current path has nothing left to
    donate. Call it between {!advance} and the next replay (or after a
    completed replay): only decisions consumed by the last replay are
    considered. *)
