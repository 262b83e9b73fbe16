(* Tests for the CONGEST simulator and the distributed algorithms:
   bandwidth enforcement, BFS, part-wise aggregation, MST (three variants),
   approximate min-cut vs Stoer-Wagner. *)

open Graphlib
module Sh = Shortcuts

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Network ---------- *)

let test_network_round_counting () =
  (* token passing along a path: node 0 sends a token that hops right *)
  let g = Generators.path 5 in
  let algo =
    {
      Congest.Network.init = (fun _ v -> if v = 0 then `Holding else `Waiting);
      step =
        (fun ctx st ->
          let v = Congest.Network.node ctx in
          match st with
          | `Holding when v < 4 ->
              Congest.Network.send ctx (v + 1) [| 1 |];
              `Done
          | `Holding -> `Done
          | `Waiting when Congest.Network.inbox_size ctx > 0 ->
              if v = 4 then `Done else `Holding
          | st -> st);
      finished = (fun st -> st = `Done);
    }
  in
  let _, stats = Congest.Network.run g algo in
  check "converged" true stats.Congest.Network.converged;
  (* token needs 2 rounds per hop (receive, then forward) minus pipelining *)
  check "round count sane" true
    (stats.Congest.Network.rounds >= 4 && stats.Congest.Network.rounds <= 10)

let test_network_bandwidth_enforced () =
  let g = Generators.path 2 in
  let algo =
    {
      Congest.Network.init = (fun _ _ -> false);
      step =
        (fun ctx _ ->
          if Congest.Network.node ctx = 0 then
            Congest.Network.send ctx 1 (Array.make 10 0);
          true);
      finished = (fun st -> st);
    }
  in
  Alcotest.check_raises "oversize message rejected"
    (Invalid_argument
       "Congest: message exceeds bandwidth (round 1, 0 -> 1, 10 words > 4)")
    (fun () -> ignore (Congest.Network.run ~bandwidth:4 g algo))

let test_network_non_neighbor_rejected () =
  let g = Generators.path 3 in
  let algo =
    {
      Congest.Network.init = (fun _ _ -> false);
      step =
        (fun ctx _ ->
          if Congest.Network.node ctx = 0 then Congest.Network.send ctx 2 [| 1 |];
          true);
      finished = (fun st -> st);
    }
  in
  Alcotest.check_raises "non-neighbor send rejected"
    (Invalid_argument "Congest: send to a non-neighbor (round 1, 0 -> 2)")
    (fun () -> ignore (Congest.Network.run g algo))

let test_network_double_send_rejected () =
  let g = Generators.path 2 in
  let algo =
    {
      Congest.Network.init = (fun _ _ -> false);
      step =
        (fun ctx _ ->
          if Congest.Network.node ctx = 0 then begin
            Congest.Network.send ctx 1 [| 1 |];
            Congest.Network.send ctx 1 [| 2 |]
          end;
          true);
      finished = (fun st -> st);
    }
  in
  Alcotest.check_raises "two messages on one edge rejected"
    (Invalid_argument
       "Congest: two messages on one edge in one round (round 1, 0 -> 1, 1 \
        words)") (fun () -> ignore (Congest.Network.run g algo))

let test_network_max_rounds_cap () =
  (* an algorithm that never finishes stops at the cap *)
  let g = Generators.path 2 in
  let algo =
    {
      Congest.Network.init = (fun _ _ -> ());
      step = (fun _ () -> ());
      finished = (fun () -> false);
    }
  in
  let _, stats = Congest.Network.run ~max_rounds:17 g algo in
  check_int "stopped at cap" 17 stats.Congest.Network.rounds;
  check "not converged" false stats.Congest.Network.converged

(* ---------- BFS ---------- *)

let test_dist_bfs_matches =
  QCheck.Test.make ~name:"distributed BFS matches centralized" ~count:15
    QCheck.(int_range 5 100)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(3 * n) n 0.15 in
      let states, stats = Congest.Bfs.run g ~root:0 in
      let reference = Traversal.bfs g 0 in
      stats.Congest.Network.converged
      && Array.for_all
           (fun v -> states.(v).Congest.Bfs.dist = reference.(v))
           (Array.init n (fun i -> i)))

let test_dist_bfs_rounds_near_depth () =
  let gp = Generators.grid 15 15 in
  let _, stats = Congest.Bfs.run gp.Generators.graph ~root:0 in
  let ecc = Distance.eccentricity gp.Generators.graph 0 in
  check "rounds close to eccentricity" true
    (stats.Congest.Network.rounds >= ecc && stats.Congest.Network.rounds <= ecc + 3)

let test_dist_bfs_parent_consistent () =
  let g = Generators.erdos_renyi ~seed:9 60 0.15 in
  let states, _ = Congest.Bfs.run g ~root:0 in
  let ok = ref true in
  Array.iteri
    (fun v st ->
      if v <> 0 then begin
        let p = st.Congest.Bfs.parent in
        if p < 0 then ok := false
        else if states.(p).Congest.Bfs.dist <> st.Congest.Bfs.dist - 1 then ok := false
      end)
    states;
  check "parents one level up" true !ok

(* ---------- Aggregate ---------- *)

let random_values ?(seed = 1) g parts =
  let st = Random.State.make [| seed |] in
  Array.init (Graph.n g) (fun v ->
      if parts.Sh.Part.part_of.(v) >= 0 then Some (Random.State.float st 1.0, v)
      else None)

let test_aggregate_correct_generic =
  QCheck.Test.make ~name:"aggregation over generic shortcuts is correct" ~count:10
    QCheck.(int_range 15 100)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(11 * n) n 0.15 in
      let tree = Spanning.bfs_tree g 0 in
      let parts = Sh.Part.voronoi ~seed:n g ~count:6 in
      let sc = Sh.Generic.construct tree parts in
      let values = random_values ~seed:n g parts in
      let r = Congest.Aggregate.minimum sc ~values in
      r.Congest.Aggregate.stats.Congest.Network.converged
      && Congest.Aggregate.verify sc ~values r)

let test_aggregate_correct_empty_shortcut =
  QCheck.Test.make ~name:"aggregation works with no shortcuts (pure flooding)"
    ~count:10
    QCheck.(int_range 15 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(13 * n) n 0.2 in
      let tree = Spanning.bfs_tree g 0 in
      let parts = Sh.Part.voronoi ~seed:(n + 2) g ~count:4 in
      let sc = Sh.Shortcut.empty tree parts in
      let values = random_values ~seed:n g parts in
      let r = Congest.Aggregate.minimum sc ~values in
      Congest.Aggregate.verify sc ~values r)

let test_aggregate_shortcut_speedup_on_rows () =
  (* long skinny parts on a wide grid: shortcuts must beat flooding *)
  let w = 40 and h = 8 in
  let gp = Generators.grid w h in
  let tree = Spanning.bfs_tree gp.Generators.graph 0 in
  let parts = Sh.Part.grid_rows w h in
  let values = random_values gp.Generators.graph parts in
  let sc = Sh.Generic.construct tree parts in
  let fast = Congest.Aggregate.minimum sc ~values in
  let slow = Congest.Aggregate.minimum (Sh.Shortcut.empty tree parts) ~values in
  check "both correct" true
    (Congest.Aggregate.verify sc ~values fast
    && Congest.Aggregate.verify sc ~values slow);
  check "flooding needs ~row length" true
    (slow.Congest.Aggregate.stats.Congest.Network.rounds >= w - 2)

let test_aggregate_large_keys () =
  (* keys above 2.0 exercise the two-word float encoding *)
  let g = Generators.path 10 in
  let tree = Spanning.bfs_tree g 0 in
  let parts = Sh.Part.of_list g [ List.init 10 (fun i -> i) ] in
  let sc = Sh.Generic.construct tree parts in
  let values = Array.init 10 (fun v -> Some (1e6 +. float_of_int (10 - v), v)) in
  let r = Congest.Aggregate.minimum sc ~values in
  check "large keys aggregated correctly" true (Congest.Aggregate.verify sc ~values r)

let test_true_minimum () =
  let g = Generators.path 4 in
  let parts = Sh.Part.of_list g [ [ 0; 1 ]; [ 2; 3 ] ] in
  let values = [| Some (3.0, 0); Some (1.0, 1); Some (2.0, 2); Some (5.0, 3) |] in
  let mins = Congest.Aggregate.true_minimum parts ~values in
  check "part 0 min" true (mins.(0) = Some (1.0, 1));
  check "part 1 min" true (mins.(3) = Some (2.0, 2))

(* the flat-array implementation against the Hashtbl reference it
   replaced (test/aggregate_ref.ml): same minima, same counts, same
   per-round and per-edge traffic.  Keys come from a 3-value set and data
   from a 4-value set, so equal keys are common and the data tie-break
   decides; some vertices carry no value at all. *)
let oracle_graphs seed =
  let cs =
    Structure.Clique_sum.compose ~seed ~k:3 ~shape:Structure.Clique_sum.Random_tree
      [
        (Generators.apollonian ~seed 12).Generators.graph;
        (Generators.grid 4 4).Generators.graph;
        fst (Generators.k_tree ~seed:(seed + 1) ~k:2 10);
      ]
  in
  [
    ("grid", (Generators.grid 7 6).Generators.graph);
    ("apollonian", (Generators.apollonian ~seed 40).Generators.graph);
    ("k-tree", fst (Generators.k_tree ~seed ~k:3 36));
    ("clique-sum", cs.Structure.Clique_sum.graph);
  ]

let test_aggregate_matches_reference =
  QCheck.Test.make ~name:"flat state matches the Hashtbl reference" ~count:6
    QCheck.(int_range 1 1000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun (name, g) ->
          let tree = Spanning.bfs_tree g 0 in
          let parts_list =
            [
              Sh.Part.voronoi ~seed g ~count:(2 + Random.State.int st 7);
              Sh.Part.random_connected ~seed g ~count:4 ~coverage:0.6;
            ]
          in
          let values parts =
            Array.init (Graph.n g) (fun v ->
                if parts.Sh.Part.part_of.(v) < 0 || Random.State.int st 8 = 0 then None
                else Some (float_of_int (Random.State.int st 3), Random.State.int st 4))
          in
          List.for_all
            (fun parts ->
              let values = values parts in
              List.for_all
                (fun (sc, max_rounds) ->
                  let tr_new = Congest.Trace.create g and tr_ref = Congest.Trace.create g in
                  let r = Congest.Aggregate.minimum ?max_rounds ~trace:tr_new sc ~values in
                  let stats, mins = Aggregate_ref.minimum ?max_rounds ~trace:tr_ref sc ~values in
                  let ok =
                    (max_rounds = None || not stats.Congest.Network.converged)
                    && r.Congest.Aggregate.mins = mins
                    && r.Congest.Aggregate.stats = stats
                    && Congest.Trace.round_messages tr_new = Congest.Trace.round_messages tr_ref
                    && Congest.Trace.round_words tr_new = Congest.Trace.round_words tr_ref
                    && List.for_all
                         (fun d ->
                           Congest.Trace.dir_edge_load tr_new d
                           = Congest.Trace.dir_edge_load tr_ref d)
                         (List.init (2 * Graph.m g) Fun.id)
                  in
                  if not ok then
                    QCheck.Test.fail_reportf "%s: seed %d disagrees with the reference" name seed;
                  ok)
                [
                  (Sh.Generic.construct tree parts, None);
                  (Sh.Shortcut.empty tree parts, None);
                  (* cut off before convergence: partial minima must agree too *)
                  (Sh.Shortcut.empty tree parts, Some 2);
                ])
            parts_list)
        (oracle_graphs seed))

(* ---------- MST ---------- *)

let test_mst_correct_all_constructors =
  QCheck.Test.make ~name:"all MST variants compute the exact MST" ~count:8
    QCheck.(int_range 15 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(17 * n) n 0.2 in
      let w = Graph.random_weights ~state:(Random.State.make [| n |]) g in
      let r1 = Congest.Mst.boruvka ~constructor:Congest.Mst.shortcut_constructor g w in
      let r2 = Congest.Mst.boruvka ~constructor:Congest.Mst.no_shortcut_constructor g w in
      let r3 = Congest.Mst.pipelined g w in
      Congest.Mst.check g w r1 = Ok ()
      && Congest.Mst.check g w r2 = Ok ()
      && Congest.Mst.check g w r3 = Ok ())

let test_mst_phases_logarithmic =
  QCheck.Test.make ~name:"Boruvka uses at most log2 n phases" ~count:8
    QCheck.(int_range 8 120)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(23 * n) n 0.2 in
      let w = Graph.random_weights ~state:(Random.State.make [| n + 1 |]) g in
      let r = Congest.Mst.boruvka ~constructor:Congest.Mst.shortcut_constructor g w in
      float_of_int r.Congest.Mst.phases <= ceil (log (float_of_int n) /. log 2.0) +. 1.0)

let test_mst_on_planar_grid () =
  let gp = Generators.grid 12 12 in
  let w = Graph.random_weights gp.Generators.graph in
  let r = Congest.Mst.boruvka ~constructor:Congest.Mst.shortcut_constructor gp.Generators.graph w in
  check "grid MST exact" true (Congest.Mst.check gp.Generators.graph w r = Ok ());
  check_int "n-1 edges" 143 (List.length r.Congest.Mst.mst_edges)

let test_mst_on_lower_bound_family () =
  let g, _ = Generators.lower_bound 6 in
  let w = Graph.random_weights g in
  let r = Congest.Mst.boruvka ~constructor:Congest.Mst.shortcut_constructor g w in
  check "lower-bound family MST exact" true (Congest.Mst.check g w r = Ok ())

let test_mst_phase_rounds_recorded () =
  let g = Generators.erdos_renyi ~seed:5 50 0.2 in
  let w = Graph.random_weights g in
  let r = Congest.Mst.boruvka ~constructor:Congest.Mst.shortcut_constructor g w in
  check_int "one record per phase" r.Congest.Mst.phases
    (List.length r.Congest.Mst.phase_rounds);
  check_int "rounds = sum of phases" r.Congest.Mst.rounds
    (List.fold_left ( + ) 0 r.Congest.Mst.phase_rounds)

(* ---------- Mincut ---------- *)

let test_stoer_wagner_known_cuts () =
  (* path: min cut 1; cycle: 2; complete K5: 4; grid: 2 *)
  let unit g = Congest.Mincut.stoer_wagner g (Graph.unit_weights g) in
  check "path cut" true (abs_float (unit (Generators.path 8) -. 1.0) < 1e-9);
  check "cycle cut" true (abs_float (unit (Generators.cycle 9) -. 2.0) < 1e-9);
  check "K5 cut" true (abs_float (unit (Graph.complete 5) -. 4.0) < 1e-9);
  check "grid cut" true
    (abs_float (unit (Generators.grid 5 5).Generators.graph -. 2.0) < 1e-9)

let test_stoer_wagner_weighted () =
  (* a dumbbell: two K4s joined by one light edge *)
  let k4a = List.concat_map (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) [ 0; 1; 2; 3 ]) [ 0; 1; 2; 3 ] in
  let k4b = List.map (fun (u, v) -> (u + 4, v + 4)) k4a in
  let g = Graph.of_edges 8 (((3, 4) :: k4a) @ k4b) in
  let w = Array.make (Graph.m g) 1.0 in
  (match Graph.find_edge g 3 4 with Some e -> w.(e) <- 0.25 | None -> assert false);
  check "bridge is the min cut" true
    (abs_float (Congest.Mincut.stoer_wagner g w -. 0.25) < 1e-9)

let test_one_respecting_cut_cycle () =
  (* on a cycle, every 1-respecting cut has value exactly 2 *)
  let g = Generators.cycle 10 in
  let tree = Spanning.bfs_tree g 0 in
  let cut, _ = Congest.Mincut.one_respecting_cut g (Graph.unit_weights g) tree in
  check "cycle 1-respecting = 2" true (abs_float (cut -. 2.0) < 1e-9)

let test_mincut_approx_sound =
  QCheck.Test.make ~name:"approx min-cut is an upper bound within 2x" ~count:6
    QCheck.(int_range 10 40)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(29 * n) n 0.3 in
      let w = Graph.unit_weights g in
      let exact = Congest.Mincut.stoer_wagner g w in
      let r =
        Congest.Mincut.approx ~trees:8 ~seed:n
          ~constructor:Congest.Mst.shortcut_constructor g w
      in
      r.Congest.Mincut.estimate >= exact -. 1e-9
      && r.Congest.Mincut.estimate <= (2.0 *. exact) +. 1e-9)

let test_mincut_approx_exact_on_bridge () =
  (* a bridge is found exactly: it 1-respects every spanning tree *)
  let g = Graph.of_edges 8 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 5); (5, 3); (5, 6); (6, 7); (7, 5) ] in
  let w = Graph.unit_weights g in
  let r =
    Congest.Mincut.approx ~trees:3 ~seed:4 ~constructor:Congest.Mst.shortcut_constructor
      g w
  in
  check "bridge cut found exactly" true (abs_float (r.Congest.Mincut.estimate -. 1.0) < 1e-9)

let test_leader_election =
  QCheck.Test.make ~name:"leader election: min id, exact census" ~count:10
    QCheck.(int_range 5 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(71 * n) n 0.2 in
      let o = Congest.Leader.elect g in
      o.Congest.Leader.leader = 0
      && o.Congest.Leader.n_estimate = n
      && o.Congest.Leader.stats.Congest.Network.converged)

let test_leader_d_estimate () =
  let gp = Generators.grid 12 12 in
  let o = Congest.Leader.elect gp.Generators.graph in
  let d = Distance.diameter_exact gp.Generators.graph in
  check "eccentricity within [D/2, D]" true
    (o.Congest.Leader.d_estimate >= d / 2 && o.Congest.Leader.d_estimate <= d);
  check "census exact" true (o.Congest.Leader.n_estimate = 144)

let test_leader_rounds_linear_in_d () =
  let g = Generators.path 50 in
  let o = Congest.Leader.elect g in
  check "whole pipeline O(D)" true (o.Congest.Leader.stats.Congest.Network.rounds <= 6 * 50)

let test_sssp_unweighted_exact =
  QCheck.Test.make ~name:"unweighted SSSP matches BFS" ~count:10
    QCheck.(int_range 10 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(59 * n) n 0.2 in
      let r = Congest.Sssp.unweighted g ~source:0 in
      Congest.Sssp.verify g (Graph.unit_weights g) ~source:0 r)

let test_sssp_bellman_ford_exact =
  QCheck.Test.make ~name:"Bellman-Ford SSSP matches Dijkstra" ~count:10
    QCheck.(int_range 10 60)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(67 * n) n 0.25 in
      let w = Graph.random_weights ~state:(Random.State.make [| n |]) g in
      let r = Congest.Sssp.bellman_ford g w ~source:0 in
      Congest.Sssp.verify g w ~source:0 r)

let test_sssp_parent_tree () =
  let gp = Generators.grid 8 8 in
  let g = gp.Generators.graph in
  let w = Graph.random_weights g in
  let r = Congest.Sssp.bellman_ford g w ~source:0 in
  (* following parents decreases the distance *)
  let ok = ref true in
  Array.iteri
    (fun v p ->
      if v <> 0 && p >= 0 then
        if r.Congest.Sssp.dist.(p) >= r.Congest.Sssp.dist.(v) then ok := false)
    r.Congest.Sssp.parent;
  check "parents strictly closer to source" true !ok

let test_sssp_rounds_hop_bound () =
  (* Bellman-Ford needs ~ hop-length of the shortest-path tree *)
  let g = Generators.path 40 in
  let w = Graph.unit_weights g in
  let r = Congest.Sssp.bellman_ford g w ~source:0 in
  check "rounds about the path length" true
    (r.Congest.Sssp.stats.Congest.Network.rounds >= 39
    && r.Congest.Sssp.stats.Congest.Network.rounds <= 45)

let test_partition_matches_offline =
  QCheck.Test.make ~name:"distributed Voronoi matches offline distances" ~count:10
    QCheck.(pair (int_range 10 80) (int_range 1 6))
    (fun (n, k) ->
      let g = Generators.erdos_renyi ~seed:(53 * n) n 0.2 in
      let st = Random.State.make [| n; k |] in
      let chosen = Hashtbl.create k in
      while Hashtbl.length chosen < min k n do
        Hashtbl.replace chosen (Random.State.int st n) ()
      done;
      let seeds = Array.of_seq (Hashtbl.to_seq_keys chosen) in
      let r = Congest.Partition.voronoi g ~seeds in
      Congest.Partition.verify g ~seeds r
      && Sh.Part.check g (Congest.Partition.to_parts g r) = Ok ())

let test_partition_rounds () =
  let gp = Generators.grid 20 20 in
  let r = Congest.Partition.voronoi gp.Generators.graph ~seeds:[| 0; 399 |] in
  check "verified" true (Congest.Partition.verify gp.Generators.graph ~seeds:[| 0; 399 |] r);
  (* rounds ~ max distance to nearest seed (here about half the diameter) *)
  let maxd = Array.fold_left max 0 r.Congest.Partition.dist in
  check "rounds near max distance" true
    (r.Congest.Partition.stats.Congest.Network.rounds <= maxd + 4)

let test_sum_correct =
  QCheck.Test.make ~name:"part-wise SUM converges to the true totals" ~count:10
    QCheck.(int_range 15 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(43 * n) n 0.2 in
      let tree = Spanning.bfs_tree g 0 in
      let parts = Sh.Part.voronoi ~seed:n g ~count:5 in
      let sc = Sh.Generic.construct tree parts in
      let st = Random.State.make [| n |] in
      let values = Array.init n (fun _ -> Some (Random.State.float st 10.0)) in
      let r = Congest.Aggregate.sum sc ~values in
      r.Congest.Aggregate.rounds > 0 && Congest.Aggregate.verify_sum sc ~values r)

let test_sum_rounds_track_quality () =
  (* on the wheel, SUM with shortcuts is fast; without, it pays the rim *)
  let g = Generators.cycle_with_apex 257 in
  let tree = Spanning.bfs_tree g 256 in
  let parts =
    Sh.Part.of_list g [ List.init 128 (fun i -> i); List.init 127 (fun i -> 128 + i) ]
  in
  let values = Array.init 257 (fun _ -> Some 1.0) in
  let fast = Congest.Aggregate.sum (Sh.Generic.construct tree parts) ~values in
  let slow = Congest.Aggregate.sum (Sh.Shortcut.empty tree parts) ~values in
  check "both correct" true
    (Congest.Aggregate.verify_sum (Sh.Generic.construct tree parts) ~values fast
    && Congest.Aggregate.verify_sum (Sh.Shortcut.empty tree parts) ~values slow);
  check "shortcuts accelerate SUM" true
    (fast.Congest.Aggregate.rounds * 4 < slow.Congest.Aggregate.rounds)

let test_construct_matches_offline =
  QCheck.Test.make ~name:"distributed construction returns the offline shortcut"
    ~count:8
    QCheck.(int_range 15 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(47 * n) n 0.2 in
      let tree = Spanning.bfs_tree g 0 in
      let parts = Sh.Part.voronoi ~seed:(n + 1) g ~count:5 in
      let r = Congest.Construct.distributed_generic tree parts in
      let offline = Sh.Generic.construct tree parts in
      Sh.Shortcut.quality r.Congest.Construct.shortcut = Sh.Shortcut.quality offline
      && r.Congest.Construct.construction_rounds > 0)

let test_construct_cost_bounded () =
  (* construction cost ~ depth + max load: check against a generous multiple *)
  let gp = Generators.grid 20 20 in
  let tree = Spanning.bfs_tree gp.Generators.graph 0 in
  let parts = Sh.Part.voronoi ~seed:2 gp.Generators.graph ~count:10 in
  let r = Congest.Construct.distributed_generic tree parts in
  let bound = 3 * (Spanning.height tree + r.Congest.Construct.max_load + 1) in
  check "construction rounds within pipelining bound" true
    (r.Congest.Construct.construction_rounds <= bound)

let test_boruvka_full_exact =
  QCheck.Test.make ~name:"fully-simulated Boruvka computes the exact MST" ~count:6
    QCheck.(int_range 15 60)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(31 * n) n 0.2 in
      let w = Graph.random_weights ~state:(Random.State.make [| n + 2 |]) g in
      let r = Congest.Mst.boruvka_full ~constructor:Congest.Mst.shortcut_constructor g w in
      Congest.Mst.check g w r = Ok ())

let test_boruvka_full_vs_charged () =
  (* the fully-simulated variant should be within a small factor of the
     charged one (same communication pattern, real echo) *)
  let g = (Generators.grid 10 10).Generators.graph in
  let w = Graph.random_weights g in
  let charged = Congest.Mst.boruvka ~constructor:Congest.Mst.shortcut_constructor g w in
  let full = Congest.Mst.boruvka_full ~constructor:Congest.Mst.shortcut_constructor g w in
  check "both exact" true
    (Congest.Mst.check g w charged = Ok () && Congest.Mst.check g w full = Ok ());
  check "full within 4x of charged" true
    (full.Congest.Mst.rounds <= 4 * charged.Congest.Mst.rounds)

(* the flat Borůvka driver against the Hashtbl-and-list one it replaced
   (test/boruvka_ref.ml): same parts handed to the constructor, in the same
   order, so the same report, per-round series and per-edge loads *)
let test_boruvka_matches_reference =
  QCheck.Test.make ~name:"flat Boruvka driver matches the reference" ~count:4
    QCheck.(int_range 1 1000)
    (fun seed ->
      List.for_all
        (fun (name, g) ->
          let w = Graph.random_weights ~state:(Random.State.make [| seed |]) g in
          (* records the parts of every phase, in order *)
          let logged constructor =
            let log = ref [] in
            ( (fun tree parts ->
                log := parts.Sh.Part.parts :: !log;
                constructor tree parts),
              log )
          in
          let agree label run_new run_ref constructor =
            let c_new, log_new = logged constructor and c_ref, log_ref = logged constructor in
            let tr_new = Congest.Trace.create g and tr_ref = Congest.Trace.create g in
            let r_new = run_new ~trace:tr_new ~constructor:c_new g w in
            let r_ref = run_ref ~trace:tr_ref ~constructor:c_ref g w in
            let ok =
              r_new = r_ref && !log_new = !log_ref
              && Congest.Trace.round_messages tr_new = Congest.Trace.round_messages tr_ref
              && List.for_all
                   (fun d ->
                     Congest.Trace.dir_edge_load tr_new d = Congest.Trace.dir_edge_load tr_ref d)
                   (List.init (2 * Graph.m g) Fun.id)
            in
            if not ok then
              QCheck.Test.fail_reportf "%s %s: seed %d disagrees with the reference" name
                label seed;
            ok
          in
          let boruvka ~trace ~constructor g w = Congest.Mst.boruvka ~trace ~constructor g w in
          let boruvka_ref ~trace ~constructor g w = Boruvka_ref.boruvka ~trace ~constructor g w in
          let full ~trace ~constructor g w = Congest.Mst.boruvka_full ~trace ~constructor g w in
          let full_ref ~trace ~constructor g w =
            Boruvka_ref.boruvka_full ~trace ~constructor g w
          in
          List.for_all
            (fun (label, constructor) ->
              agree ("boruvka " ^ label) boruvka boruvka_ref constructor
              && agree ("boruvka_full " ^ label) full full_ref constructor)
            [
              ("shortcut", Congest.Mst.shortcut_constructor);
              ("no shortcut", Congest.Mst.no_shortcut_constructor);
            ]
          && Congest.Mst.pipelined g w = Boruvka_ref.pipelined g w)
        (oracle_graphs seed))

let test_two_respecting_beats_one () =
  (* star 0-{1,2,3} + heavy bond 1-2; min cut {1,2} is 2-respecting only *)
  let g = Graph.of_edges 4 [ (0, 1); (0, 2); (0, 3); (1, 2) ] in
  let w = Array.make 4 0.0 in
  let set u v x = match Graph.find_edge g u v with Some e -> w.(e) <- x | None -> assert false in
  set 0 1 1.0;
  set 0 2 1.0;
  set 0 3 10.0;
  set 1 2 10.0;
  let tree = Spanning.bfs_tree g 0 in
  let one, _ = Congest.Mincut.one_respecting_cut g w tree in
  let two = Congest.Mincut.two_respecting_cut g w tree in
  check "1-respecting misses the cut" true (one >= 10.0);
  check "2-respecting finds it" true (abs_float (two -. 2.0) < 1e-9);
  check "stoer-wagner agrees" true
    (abs_float (Congest.Mincut.stoer_wagner g w -. 2.0) < 1e-9)

let test_two_respecting_sound =
  QCheck.Test.make ~name:"2-respecting cut >= exact min cut" ~count:8
    QCheck.(int_range 8 30)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(37 * n) n 0.3 in
      let w = Graph.unit_weights g in
      let tree = Spanning.bfs_tree g 0 in
      let two = Congest.Mincut.two_respecting_cut g w tree in
      let one, _ = Congest.Mincut.one_respecting_cut g w tree in
      let exact = Congest.Mincut.stoer_wagner g w in
      two >= exact -. 1e-9 && two <= one +. 1e-9)

let test_mincut_approx_two_respecting () =
  let g = (Generators.grid 8 8).Generators.graph in
  let w = Graph.unit_weights g in
  let r =
    Congest.Mincut.approx ~trees:4 ~two_respecting:true ~seed:6
      ~constructor:Congest.Mst.shortcut_constructor g w
  in
  check "grid min cut found" true (abs_float (r.Congest.Mincut.estimate -. 2.0) < 1e-9)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "congest"
    [
      ( "network",
        [
          Alcotest.test_case "round counting" `Quick test_network_round_counting;
          Alcotest.test_case "bandwidth enforced" `Quick test_network_bandwidth_enforced;
          Alcotest.test_case "non-neighbor rejected" `Quick test_network_non_neighbor_rejected;
          Alcotest.test_case "double send rejected" `Quick test_network_double_send_rejected;
          Alcotest.test_case "round cap" `Quick test_network_max_rounds_cap;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "rounds near depth" `Quick test_dist_bfs_rounds_near_depth;
          Alcotest.test_case "parents consistent" `Quick test_dist_bfs_parent_consistent;
        ]
        @ qsuite [ test_dist_bfs_matches ] );
      ( "aggregate",
        [
          Alcotest.test_case "shortcut speedup on rows" `Quick
            test_aggregate_shortcut_speedup_on_rows;
          Alcotest.test_case "large keys" `Quick test_aggregate_large_keys;
          Alcotest.test_case "true minimum" `Quick test_true_minimum;
        ]
        @ qsuite
            [
              test_aggregate_correct_generic;
              test_aggregate_correct_empty_shortcut;
              test_aggregate_matches_reference;
            ]
      );
      ( "sum",
        [ Alcotest.test_case "rounds track quality" `Quick test_sum_rounds_track_quality ]
        @ qsuite [ test_sum_correct ] );
      ( "partition",
        [ Alcotest.test_case "round count" `Quick test_partition_rounds ]
        @ qsuite [ test_partition_matches_offline ] );
      ( "sssp",
        [
          Alcotest.test_case "parent tree" `Quick test_sssp_parent_tree;
          Alcotest.test_case "hop-bound rounds" `Quick test_sssp_rounds_hop_bound;
        ]
        @ qsuite [ test_sssp_unweighted_exact; test_sssp_bellman_ford_exact ] );
      ( "leader",
        [
          Alcotest.test_case "diameter estimate" `Quick test_leader_d_estimate;
          Alcotest.test_case "O(D) pipeline" `Quick test_leader_rounds_linear_in_d;
        ]
        @ qsuite [ test_leader_election ] );
      ( "construct",
        [ Alcotest.test_case "cost bounded" `Quick test_construct_cost_bounded ]
        @ qsuite [ test_construct_matches_offline ] );
      ( "mst",
        [
          Alcotest.test_case "planar grid" `Quick test_mst_on_planar_grid;
          Alcotest.test_case "lower-bound family" `Quick test_mst_on_lower_bound_family;
          Alcotest.test_case "phase accounting" `Quick test_mst_phase_rounds_recorded;
        ]
        @ qsuite
            [
              test_mst_correct_all_constructors;
              test_mst_phases_logarithmic;
              test_boruvka_matches_reference;
            ] );
      ( "mst_full",
        [ Alcotest.test_case "full vs charged rounds" `Quick test_boruvka_full_vs_charged ]
        @ qsuite [ test_boruvka_full_exact ] );
      ( "mincut2",
        [
          Alcotest.test_case "2-respecting beats 1-respecting" `Quick
            test_two_respecting_beats_one;
          Alcotest.test_case "approx with 2-respecting" `Quick
            test_mincut_approx_two_respecting;
        ]
        @ qsuite [ test_two_respecting_sound ] );
      ( "mincut",
        [
          Alcotest.test_case "known cuts" `Quick test_stoer_wagner_known_cuts;
          Alcotest.test_case "weighted dumbbell" `Quick test_stoer_wagner_weighted;
          Alcotest.test_case "1-respecting on cycle" `Quick test_one_respecting_cut_cycle;
          Alcotest.test_case "bridge exact" `Quick test_mincut_approx_exact_on_bridge;
        ]
        @ qsuite [ test_mincut_approx_sound ] );
    ]
