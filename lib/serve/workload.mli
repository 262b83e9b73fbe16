(** Query workload model for the serving layer (DESIGN.md section 14).

    A query names a graph from a fixed fleet ({!graph_spec}), one of the
    four CONGEST primitives the paper's Corollary 1 serves ({!kind}), and a
    small per-query seed.  Everything is deterministic in the query alone:
    running the same query twice — on any domain, in any batch — produces
    the same {!response}, which is what makes the server's batched results
    oracle-checkable against {!run_sequential}. *)

type graph_spec =
  | Grid of int * int  (** planar grid, Theorem 4 territory *)
  | Apollonian of int * int  (** [(seed, n)] random maximal planar *)
  | Ktree of int * int * int  (** [(seed, k, n)] treewidth-k, Theorem 5 *)
  | Wheel of int  (** cycle + apex, the apex-graph family *)
  | Torus of int * int  (** genus-1 surface family *)

val spec_name : graph_spec -> string
(** Short stable name, e.g. ["grid-12x12"]; used in spans, events and
    batching keys shown to humans. *)

val graph : graph_spec -> Core.Graph.t
(** Resolve the graph through the [Memo] graph table: the first lookup
    of a spec generates it, every later one (until [Memo.clear]) returns
    the same shared graph.  Nothing derived from the graph is cached —
    each query builds its own spanning trees, partitions and shortcuts. *)

val default_fleet : graph_spec array
(** The five-family fleet the benches and CLI serve by default — one graph
    per structural family of the paper. *)

type kind = Bfs | Sssp | Mst | Mincut

val kind_name : kind -> string
val all_kinds : kind array

type query = { spec : graph_spec; kind : kind; qseed : int }
(** [qseed] picks the root/source/weights, so a small seed range gives the
    repeated-query traffic a serving fleet sees. *)

type response = { rounds : int; value : float }
(** [rounds] is the simulated CONGEST round count; [value] is a
    kind-specific checksum (nodes reached, distance mass, MST weight, cut
    estimate) that pins the whole answer for oracle comparison. *)

val run : Core.Graph.t -> query -> response
(** [run g q] answers [q] against [g], which must be [graph q.spec] —
    the server resolves the graph once per batch and shares it across the
    batch's queries. *)

val run_sequential : query -> response
(** The oracle: resolve the graph and answer the query, no server, no
    batching, no pool. *)

val response_equal : response -> response -> bool
