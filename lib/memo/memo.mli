(** The serving layer's graph-resolution table (DESIGN.md section 10).

    Every query names its graph by a spec, and a serving fleet is a handful
    of specs queried over and over, so [Serve.Workload.graph] resolves each
    spec once and keeps the graph here.  It is the only cache in the
    system: every compute layer (generators, decompositions, Steiner
    forests, shortcut constructions) runs its computation on every call.

    The table is process-global and unbounded — a fleet is a few graphs —
    and guarded by one mutex that is never held while a graph is built.
    Two domains racing on the same key may both build it; the second
    insert is dropped, which is sound because graph generation is
    deterministic.  Stored graphs are shared, so callers must not mutate
    them. *)

val find_or_compute : string -> (unit -> Graphlib.Graph.t) -> Graphlib.Graph.t
(** [find_or_compute key build] returns the graph stored under [key], or
    runs [build], stores its result and returns it.  The key must name the
    graph uniquely: [Serve.Workload] passes the spec's stable name. *)

val clear : unit -> unit
(** Drop every stored graph (the counters keep accumulating). *)

type stats = {
  hits : int;  (** lookups answered from the table *)
  misses : int;  (** lookups that built the graph *)
  entries : int;
  bytes : int;  (** off-heap CSR payload of the stored graphs *)
}

val stats : unit -> stats
