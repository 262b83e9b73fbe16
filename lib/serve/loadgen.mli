(** Open-loop load generator for {!Server} (DESIGN.md section 14).

    Open-loop means the arrival schedule is fixed before the run: arrivals
    are Poisson (exponential inter-arrival gaps at [rate] qps) drawn from
    {!Faults.Rng} named streams, so the schedule is a pure function of
    [(rate, queries, seed, fleet)] and never reacts to server speed — a
    slow server accumulates queueing latency (or sheds load) instead of
    silently slowing the generator, which is the methodology that makes
    p99 honest (EXPERIMENTS.md, SV1).

    Latency is measured against the {e scheduled} arrival time, and the
    driver only sleeps when ahead of schedule; batches are cut either when
    the pending queue reaches the server's [batch_max] or when the
    generator goes idle waiting for the next arrival. *)

type event = { at_ms : float; query : Workload.query }

val schedule :
  rate:float ->
  queries:int ->
  seed:int ->
  fleet:Workload.graph_spec array ->
  event list
(** Deterministic Poisson schedule: arrival gaps from the
    ["serve.arrivals"] stream, graph/kind/qseed mix from ["serve.mix"]
    (40% BFS, 30% SSSP, 20% MST, 10% min-cut; qseed in 0..3, so queries
    repeat).  [at_ms] is strictly increasing. *)

type phase_stats = {
  phase : string;
  submitted : int;
  accepted : int;
  rejected : int;
  completed : int;
  wall_ms : float;
  qps : float;  (** completed queries per wall second *)
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  cache_hits : int;  (** [Memo] graph-table hit delta over the phase *)
  cache_misses : int;
  cache_hit_rate : float;
  queue_hwm : int;  (** server-lifetime high-water mark at phase end *)
  steals : int;  (** pool steal delta over the phase *)
  per_kind : (string * int * int * float) list;
      (** (kind, queries, rounds sum, value sum) — deterministic when
          nothing was shed *)
}

val percentile : float array -> float -> float
(** Nearest-rank percentile ([p] in 0..100) of a copy of the array;
    [0.0] on empty input. *)

val run_phase :
  name:string ->
  server:Server.t ->
  events:event list ->
  phase_stats * Server.completion list
(** Drive one phase of the schedule against the server in real time and
    return its stats plus every completion (sorted by sequence number).
    Emits one ["serve_summary"] event per phase when a sink is installed. *)

val phase_json : phase_stats -> Obs.Sink.json
(** The ["serve_summary"] payload; also the per-phase entry of the bench
    ledger's [serve] section. *)
