(** In-process query server: bounded admission queue → same-graph batcher →
    work-stealing [Exec.Pool] → [Workload.run] on a graph resolved once
    per batch (DESIGN.md section 14).

    The server is single-producer: one thread of control submits and
    drains; parallelism lives inside {!drain}, which dispatches each batch
    across the pool's domains.  Backpressure is explicit and counted —
    {!submit} on a full queue sheds the query immediately ([Rejected],
    ["serve.rejected"] counter) instead of queueing unbounded latency.

    Determinism: accepted queries get dense sequence numbers in submission
    order; {!drain} groups the pending queue by graph spec (first-occurrence
    order, submission order within a group, split into batches of at most
    [batch_max]) and returns completions sorted by sequence number.  Since
    every query's response is a pure function of the query, the completion
    list — minus its latency fields — is independent of the pool's job
    count and steal schedule. *)

type config = {
  queue_depth : int;  (** admission bound: pending queries beyond it shed *)
  batch_max : int;  (** max queries dispatched as one pool sweep *)
}

val default_config : config
(** [{ queue_depth = 256; batch_max = 64 }] *)

type t

type outcome =
  | Accepted of int  (** sequence number, dense over accepted queries *)
  | Rejected  (** queue full — shed, counted in ["serve.rejected"] *)

type completion = {
  seq : int;
  query : Workload.query;
  response : Workload.response;
  latency_ms : float;  (** completion minus arrival; includes queueing *)
  batch : int;  (** server-lifetime ordinal of the serving batch *)
}

type stats = {
  accepted : int;
  rejected : int;
  completed : int;
  batches : int;
  queue_hwm : int;  (** pending-queue high-water mark *)
}

val create : ?config:config -> Exec.Pool.t -> t
(** The pool is borrowed, not owned: the caller shuts it down. *)

val config : t -> config
val pool : t -> Exec.Pool.t

val submit : ?arrival_ns:int64 -> t -> Workload.query -> outcome
(** [arrival_ns] (monotonic, {!Obs.Clock.now_ns} scale) defaults to now;
    an open-loop load generator passes the scheduled arrival instead, so
    latency measures from when the query {e should} have arrived. *)

val pending : t -> int

val drain : t -> completion list
(** Serve everything pending and return the completions sorted by [seq]
    (empty list when idle).  Emits one ["serve_query"] event per completion
    (in [seq] order) when a sink is installed, observes each latency into
    the ["serve.latency_ms"] histogram, and wraps each batch in a
    ["serve.batch"] span with per-query ["serve.query"] child spans. *)

val stats : t -> stats
