(* On/off equality for every instrumented producer: graph generators,
   planarity, tree decompositions, heavy-light, clique sums, partitions,
   Steiner forests and generic shortcuts.  Instrumentation (spans, GC
   probes, a JSONL sink) must never change what is computed. *)

module Graph = Graphlib.Graph
module Generators = Graphlib.Generators
module Spanning = Graphlib.Spanning

let check = Alcotest.(check bool)

let with_capture f =
  let path = Filename.temp_file "on_off_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Obs.Sink.with_file path f)

let with_spans f =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false; Obs.Span.reset ()) f

(* Each producer that wraps its work in spans and counters runs once with
   observability off and twice instrumented (spans, GC probes and a JSONL
   sink on).  All three results must agree: instrumentation never changes
   what is computed, and a producer called twice replays exactly. *)
let on_off name eq produce () =
  let off = produce () in
  let gc_was = Obs.Gcstat.enabled () in
  let on1, on2 =
    with_capture (fun () ->
        with_spans (fun () ->
            Obs.Gcstat.set_enabled true;
            Fun.protect
              ~finally:(fun () -> Obs.Gcstat.set_enabled gc_was)
              (fun () ->
                let a = produce () in
                (a, produce ()))))
  in
  check (name ^ ": off = on") true (eq off on1);
  check (name ^ ": replays") true (eq on1 on2)

let same_graph a b =
  Graph.n a = Graph.n b && Graph.m a = Graph.m b && Graph.edges a = Graph.edges b

let grid_graph () = (Generators.grid 9 7).Generators.graph

let producer_cases =
  let pair_eq (g1, a1) (g2, a2) = same_graph g1 g2 && a1 = a2 in
  let voronoi_tree () =
    let g = grid_graph () in
    (Spanning.bfs_tree g 0, Shortcuts.Part.voronoi ~seed:1 g ~count:6)
  in
  [
    ("gen.grid", on_off "gen.grid" same_graph grid_graph);
    ( "gen.apollonian",
      on_off "gen.apollonian" same_graph (fun () ->
          (Generators.apollonian ~seed:3 40).Generators.graph) );
    ( "gen.series_parallel",
      on_off "gen.series_parallel" same_graph (fun () ->
          Generators.series_parallel ~seed:5 60) );
    ( "gen.k_tree",
      on_off "gen.k_tree" pair_eq (fun () -> Generators.k_tree ~seed:2 ~k:3 50)
    );
    ( "gen.torus_grid",
      on_off "gen.torus_grid" same_graph (fun () -> Generators.torus_grid 6 5)
    );
    ( "gen.random_tree",
      on_off "gen.random_tree" same_graph (fun () ->
          Generators.random_tree ~seed:9 64) );
    ( "gen.erdos_renyi",
      on_off "gen.erdos_renyi" same_graph (fun () ->
          Generators.erdos_renyi ~seed:4 48 0.12) );
    ( "gen.cycle_with_apex",
      on_off "gen.cycle_with_apex" same_graph (fun () ->
          Generators.cycle_with_apex 30) );
    ( "gen.lower_bound",
      on_off "gen.lower_bound" pair_eq (fun () -> Generators.lower_bound 3) );
    ( "planarity.is_planar",
      on_off "planarity.is_planar" ( = ) (fun () ->
          Structure.Planarity.is_planar (grid_graph ())) );
    ( "tree_decomposition.of_elimination_order",
      on_off "tree_decomposition" ( = ) (fun () ->
          let g = Generators.series_parallel ~seed:5 40 in
          let td =
            Structure.Tree_decomposition.of_elimination_order g
              (Array.init (Graph.n g) Fun.id)
          in
          ( Structure.Tree_decomposition.width td,
            Structure.Tree_decomposition.nbags td )) );
    ( "heavy_light.create",
      on_off "heavy_light.create" ( = ) (fun () ->
          let g = grid_graph () in
          let tree = Spanning.bfs_tree g 0 in
          Structure.Heavy_light.create ~parent:tree.Spanning.parent ~root:0
            ~n:(Graph.n g)) );
    ( "clique_sum.compose",
      on_off "clique_sum.compose" same_graph (fun () ->
          let pieces = [ grid_graph (); Generators.series_parallel ~seed:7 30 ] in
          (Structure.Clique_sum.compose ~seed:11 ~k:3
             ~shape:Structure.Clique_sum.Random_tree pieces)
            .Structure.Clique_sum.graph) );
    ( "part.voronoi",
      on_off "part.voronoi" ( = ) (fun () ->
          Shortcuts.Part.voronoi ~seed:1 (grid_graph ()) ~count:6) );
    ( "steiner.compute",
      on_off "steiner.compute" ( = ) (fun () ->
          let tree, parts = voronoi_tree () in
          (Shortcuts.Steiner.compute tree parts).Shortcuts.Steiner.edges) );
    ( "generic.construct",
      on_off "generic.construct" ( = ) (fun () ->
          let tree, parts = voronoi_tree () in
          let sc = Shortcuts.Generic.construct tree parts in
          ( Shortcuts.Shortcut.block_parameter sc,
            Shortcuts.Shortcut.congestion sc,
            Shortcuts.Shortcut.quality sc,
            Shortcuts.Shortcut.total_assigned sc )) );
  ]

let () =
  Alcotest.run "on-off"
    [
      ( "on-off-equality",
        List.map
          (fun (name, fn) -> Alcotest.test_case name `Quick fn)
          producer_cases );
    ]
