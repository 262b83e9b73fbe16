type graph_spec =
  | Grid of int * int
  | Apollonian of int * int
  | Ktree of int * int * int
  | Wheel of int
  | Torus of int * int

let spec_name = function
  | Grid (w, h) -> Printf.sprintf "grid-%dx%d" w h
  | Apollonian (seed, n) -> Printf.sprintf "apollonian-%d-s%d" n seed
  | Ktree (seed, k, n) -> Printf.sprintf "ktree-%d-k%d-s%d" n k seed
  | Wheel n -> Printf.sprintf "wheel-%d" n
  | Torus (w, h) -> Printf.sprintf "torus-%dx%d" w h

let build = function
  | Grid (w, h) -> (Core.Generators.grid w h).Core.Generators.graph
  | Apollonian (seed, n) ->
      (Core.Generators.apollonian ~seed n).Core.Generators.graph
  | Ktree (seed, k, n) -> fst (Core.Generators.k_tree ~seed ~k n)
  | Wheel n -> Core.Generators.wheel n
  | Torus (w, h) -> Core.Generators.torus_grid w h

(* [spec_name] is injective, so it keys the table *)
let graph spec = Memo.find_or_compute (spec_name spec) (fun () -> build spec)

let default_fleet =
  [|
    Grid (12, 12);
    Apollonian (7, 120);
    Ktree (3, 2, 100);
    Wheel 96;
    Torus (8, 8);
  |]

type kind = Bfs | Sssp | Mst | Mincut

let kind_name = function
  | Bfs -> "bfs"
  | Sssp -> "sssp"
  | Mst -> "mst"
  | Mincut -> "mincut"

let all_kinds = [| Bfs; Sssp; Mst; Mincut |]

type query = { spec : graph_spec; kind : kind; qseed : int }
type response = { rounds : int; value : float }

let run g q =
  let n = Core.Graph.n g in
  match q.kind with
  | Bfs ->
      let states, stats = Core.Dist_bfs.run g ~root:(q.qseed mod n) in
      (* distance mass pins the whole BFS tree shape *)
      let mass =
        Array.fold_left
          (fun acc st ->
            if st.Core.Dist_bfs.dist >= 0 then acc + st.Core.Dist_bfs.dist
            else acc)
          0 states
      in
      { rounds = stats.Core.Network.rounds; value = float_of_int mass }
  | Sssp ->
      let r = Core.Sssp.unweighted g ~source:(q.qseed mod n) in
      let mass =
        Array.fold_left
          (fun acc d -> if d < infinity then acc +. d else acc)
          0.0 r.Core.Sssp.dist
      in
      { rounds = r.Core.Sssp.stats.Core.Network.rounds; value = mass }
  | Mst ->
      let w = Core.Graph.random_weights ~state:(Core.Rng.algo (q.qseed + 17)) g in
      let r =
        Core.Mst.boruvka ~constructor:Core.Mst.shortcut_constructor g w
      in
      { rounds = r.Core.Mst.rounds; value = r.Core.Mst.mst_weight }
  | Mincut ->
      let w = Core.Graph.unit_weights g in
      let r =
        Core.Mincut.approx ~trees:4 ~seed:(q.qseed + 1)
          ~constructor:Core.Mst.shortcut_constructor g w
      in
      { rounds = r.Core.Mincut.rounds; value = r.Core.Mincut.estimate }

let run_sequential q = run (graph q.spec) q

let response_equal a b =
  a.rounds = b.rounds && Float.equal a.value b.value
