(** Parts (Definition 9): pairwise disjoint, individually connected vertex
    subsets of the network graph. The same type also serves for cell
    partitions (Definition 14), which additionally keep their diameter
    small. *)

type t = {
  parts : int array array;  (** part id -> member vertices *)
  part_of : int array;  (** vertex -> part id, or [-1] if in no part *)
}

val of_list : Graphlib.Graph.t -> int list list -> t
(** Build and validate (connectivity, disjointness). *)

val count : t -> int
val size : t -> int -> int

val check : Graphlib.Graph.t -> t -> (unit, string) result
(** Disjointness and [G[P_i]] connectivity. *)

val max_part_diameter : Graphlib.Graph.t -> t -> int
(** Max diameter of [G[P_i]] over all parts (BFS inside each part). *)

(** {1 Generators} *)

val voronoi : seed:int -> Graphlib.Graph.t -> count:int -> t
(** Multi-source-BFS Voronoi cells from random seeds: covers every vertex
    with connected regions. The canonical workload for shortcut quality. *)

val grid_rows : int -> int -> t
(** The rows of a [w x h] grid as parts: long skinny parts (the adversarial
    workload from the wheel-graph discussion in §1.3.3). *)

val boruvka_fragments : Graphlib.Graph.t -> Graphlib.Graph.weights -> level:int -> t
(** The fragments present after [level] rounds of Boruvka on the weighted
    graph: the parts the MST algorithm actually queries. *)

val singletons : Graphlib.Graph.t -> t

val random_connected : seed:int -> Graphlib.Graph.t -> count:int -> coverage:float -> t
(** [count] connected parts grown by random BFS until roughly [coverage]
    fraction of vertices are used; parts can leave gaps (unlike {!voronoi}). *)
