(** The replay DFS over nondeterministic choices.

    Jaaru explores a failure scenario by re-running it from scratch under a
    recorded list of decisions (stateless-model-checking replay — the
    substitute for the paper's fork-based rollback). Each nondeterministic
    point in an execution — inject a failure or not, which store a load reads
    from, how much of the store buffer drains at a crash — consults this
    stack: decisions inside the recorded prefix are replayed, fresh ones
    default to alternative 0 and are recorded. After each replay, {!advance}
    flips the deepest unexhausted decision, depth-first, until the whole tree
    has been visited. Snapshot {!point}s and {!split}s refer to its cells:
    it is the one record of the search path. *)

type kind = Failure_point | Read_from | Drain
(** What a decision was about — kept for statistics and debug output. *)

exception Divergence of string
(** A replayed decision saw a different shape than when it was recorded —
    the program under test is nondeterministic (e.g. it consulted wall-clock
    time or hash-table iteration order), or a resumed prefix no longer fits
    the program. *)

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

val created : t -> kind -> int
(** Cumulative count of fresh decisions of a kind over the searcher's whole
    life, across {!restart}s (never decreases on truncation). Decisions
    replayed out of a prefix are {e not} counted again — summing [created]
    across the workers of a parallel exploration equals the sequential
    count. *)

(** {1 Points}

    A point is a position on the decision path: the first [depth] decisions,
    the last taking alternative [alt]. It names that decision's cell record
    instead of copying the path: the search only strips the deepest cells or
    moves the deepest survivor forward in place, so while the record is
    still the searcher's cell at [depth - 1], every shallower decision is
    unchanged. Every replay through a point reaches the same state there,
    so a snapshot taken at it can stand in for re-executing the program. *)

type point

val point : ?alt:int -> t -> point
(** The point at the cursor, its last decision taking [alt] (default: the
    alternative taken). With nothing consumed it is the root, which every
    replay of every searcher passes through. *)

val point_depth : point -> int
(** Number of decisions up to and including the point's own. *)

val same_point : point -> point -> bool
(** Whether two points are the same decision and alternative, in O(1). *)

val status : t -> point -> [ `On_path | `Ahead | `Dead ]
(** The point against the upcoming replay's recorded decisions, in O(1);
    call after {!begin_replay}. [`On_path]: the replay passes through it.
    [`Ahead]: its cell is on the path at a smaller alternative. [`Dead]: its
    cell has left the path or moved past [alt]; no later replay of this
    searcher passes through it. *)

val fast_forward : t -> int -> unit
(** Moves the cursor to recorded decision [n] without consuming the cells in
    between — the replay resumes as if the first [n] decisions had been
    taken. Only meaningful at the depth of an [`On_path] point. Raises
    [Invalid_argument] when [n] is behind the cursor or beyond the recorded
    prefix. *)

(** {1 Prefixes: forking subtrees for parallel exploration}

    A prefix pins the first decisions of an execution: cells below [frozen]
    are replayed verbatim and never advanced; the remaining cells (in
    practice exactly one, the forked decision) start at [chosen] and are
    advanced up to [limit - 1] as usual. A searcher restarted from a prefix
    therefore explores exactly the subtrees of the alternatives
    [\[chosen, limit)] of the forked decision — the other side of a
    {!split}. *)

type prefix

val root : prefix
(** The empty prefix: restarting from it is a full sequential exploration. *)

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

val restart : t -> prefix -> unit
(** Points the searcher at the subtree the prefix describes: it replays the
    pinned decisions, then explores depth-first as a fresh {!create} would,
    never flipping a frozen cell. The records it shares with the prefix are
    kept (the deepest may move forward in place, as {!advance} would), so
    points on them stay valid across subtree tasks; the rest of the prefix
    is copied. *)

val remainder : t -> prefix
(** The searcher's entire unexplored subtree as a resumable prefix:
    restarting from [remainder t] explores exactly the leaves [t] had left.
    The basis of checkpointing — a worker asked to stop cooperatively
    captures [remainder] instead of replaying. Call it where a fresh replay
    would start (after a successful {!advance}, or after {!restart} before
    any replay); raises [Invalid_argument] if some recorded cell is
    exhausted ([chosen >= limit]), which cannot happen at those points.
    [remainder] of a fresh {!create} is {!root}. *)

val split_prefix : prefix -> (prefix * prefix) option
(** Carves the sibling alternatives of the shallowest non-frozen wide cell
    ([chosen + 1 < limit]) out of a prefix without replaying anything.
    [Some (kept, donated)] covers exactly the subtree of the input — [kept]
    continues the recorded path with the wide cell's range shrunk to its
    current choice, [donated] pins the path up to that cell and owns the
    alternatives [\[chosen+1, limit)] — and the two are disjoint. [None]
    when no cell is splittable (the prefix pins a single undived path, e.g.
    {!root} or a fully singleton prefix). The fleet coordinator uses this to
    shatter a checkpoint frontier into more shards than the run that wrote
    it had workers. *)

val split : t -> prefix option
(** {!split_prefix} of the current path — the decisions consumed by the last
    replay, the searcher's frozen cells frozen — returning the donated half
    and shrinking the live cell's [limit] so this searcher never visits the
    donated subtrees. [None] when the current path has nothing left to
    donate. Call it between {!advance} and the next replay (or after a
    completed replay). *)
