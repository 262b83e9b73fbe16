(** Fixed-size domain pool with deterministic, self-balancing scheduling.

    The experiment fabric: a sweep is a list of independent cells (one
    graph/parameter/seed combination each); {!map_cells} splits the cell
    indices into one contiguous, balanced chunk per slice, runs slice 0 on
    the calling domain and the rest on persistent worker domains, and
    returns results indexed exactly like the input.  Each chunk has one
    atomic cursor; a slice takes a cell with a fetch-and-add on it.  A
    slice drains its own chunk in increasing cell order and then drains
    the other slices' chunks in one pass, so skewed per-cell costs
    rebalance dynamically instead of serializing on the slowest static
    chunk.  Cells are fixed before dispatch and none adds work, so a
    drained cursor stays drained.

    Determinism contract: every cell computes from its own inputs (its own
    seed, no shared mutable state) and every result lands in an
    index-addressed slot, so the result array — and anything the caller
    prints from it in index order — is byte-identical whatever the job
    count and whatever the steal schedule.

    Observability integrates at the join: workers adopt the caller's open
    span context before running ({!Obs.Span.adopt}) and their span tables,
    metric stores, and buffered sink lines are captured when their slice
    ends and absorbed into the calling domain in slice order
    ({!Obs.capture_domain}/{!Obs.absorb_domain}).  Counters, histograms and
    span tables merge commutatively; gauges — last-writer-wins, the one
    order-sensitive merge — are ranked by cell index
    ({!Obs.Metrics.set_merge_rank} brackets every cell), so the merged
    value is the highest-indexed writing cell's, identical to sequential
    execution no matter which domain ran which cell.

    With [jobs = 1] (or a single cell) no domain and no cursor is ever
    involved: the cells run inline on the calling domain, making [-j 1]
    bit-identical to code that never heard of the pool. *)

type t

val create : jobs:int -> t
(** Spawn [jobs - 1] persistent worker domains ([jobs] is clamped to at
    least 1).  The workers idle on a condition variable between sweeps.
    Call {!shutdown} when done — live workers keep the process alive. *)

val jobs : t -> int

val steal_count : t -> int
(** Total cells executed by a slice other than the one whose chunk holds
    them, over the pool's lifetime.  Timing-dependent (any value from 0 to
    the number of dispatched cells is legal); also accumulated into the
    ["exec.pool.steals"] metrics counter per sweep. *)

val shutdown : t -> unit
(** Stop and join the worker domains — all of them, even when a join
    re-raises a worker's uncaught exception; the first (lowest-index)
    exception is re-raised after every domain is joined, so no domain is
    ever leaked parked on its mailbox.  Idempotent; the pool must not be
    used afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down when
    [f] returns or raises. *)

val map_cells : t -> f:(int -> 'a -> 'b) -> 'a array -> 'b array
(** [map_cells t ~f cells] computes [f i cells.(i)] for every [i] and
    returns the results in input order.  [f] runs on the calling domain for
    slice 0 and on worker domains otherwise (any cell may migrate to any
    slice, except cell 0, which the calling domain claims
    before the workers start); it must not touch mutable state shared with other
    cells (print, grow caller-side refs, use the global [Random] state,
    ...) — return data instead and let the caller emit it in order.
    Observability (spans, metrics, sink events) is safe anywhere.

    If cells raise, every remaining cell still runs, and the exception of
    the lowest-indexed raising cell is re-raised (with its backtrace) after
    all slices finish and worker observability state is absorbed.  A task
    closure that fails outside any cell (infrastructure failure) is
    re-raised only when no cell failed, and can never leave worker domains
    parked: the mailbox is always cleared and the crash published to the
    caller. *)

val map_list : t -> f:('a -> 'b) -> 'a list -> 'b list
(** List-flavored {!map_cells} (cell index dropped), for callers whose
    sweeps are lists. *)
