(* Reference implementation of the Borůvka driver behind Congest.Mst: the
   version that bucketed fragments through a per-vertex Hashtbl.replace
   and list consing, tested [Union_find.same] on every edge, and kept the
   per-fragment winner as a boxed option.  Congest.Mst replaced it with a
   per-phase root array and flat counting passes.  Kept only as a test
   oracle, built from public APIs alone: both versions must hand the
   constructor the same parts in the same order, so every report field,
   per-round series and per-edge load agrees. *)

module Graph = Graphlib.Graph
module Spanning = Graphlib.Spanning
module Union_find = Graphlib.Union_find
module Part = Shortcuts.Part
module Aggregate = Congest.Aggregate
module Network = Congest.Network
module Mst = Congest.Mst

let fragments_of uf g =
  let n = Graph.n g in
  let buckets = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let r = Union_find.find uf v in
    Hashtbl.replace buckets r (v :: Option.value (Hashtbl.find_opt buckets r) ~default:[])
  done;
  Part.of_list g (Hashtbl.fold (fun _ l acc -> l :: acc) buckets [])

let mwoe_values g w uf =
  Array.init (Graph.n g) (fun v ->
      let best = ref None in
      Graph.iter_adj g v (fun u e ->
          if not (Union_find.same uf v u) then
            match !best with
            | Some (bw, be) when not (Aggregate.value_lt w.(e) e bw be) -> ()
            | _ -> best := Some (w.(e), e));
      !best)

let merge_phase g uf mins parts mst_edges =
  let nparts = Part.count parts in
  let chosen = Array.make nparts None in
  Array.iteri
    (fun v m ->
      let p = parts.Part.part_of.(v) in
      if p >= 0 then
        match (m, chosen.(p)) with
        | Some (kx, dx), Some (ky, dy) when not (Aggregate.value_lt kx dx ky dy) -> ()
        | Some x, _ -> chosen.(p) <- Some x
        | None, _ -> ())
    mins;
  Array.iter
    (fun c ->
      match c with
      | Some (_, e) ->
          let u, v = Graph.edge g e in
          if Union_find.union uf u v then mst_edges := e :: !mst_edges
      | None -> ())
    chosen

let report ~phases ~rounds ~messages ~phase_rounds w mst_edges =
  {
    Mst.phases;
    rounds;
    messages;
    mst_edges;
    mst_weight = Spanning.total_weight w mst_edges;
    phase_rounds = List.rev phase_rounds;
  }

let boruvka ?(overhead = 2) ?trace ~constructor g w =
  let n = Graph.n g in
  let uf = Union_find.create n in
  let mst_edges = ref [] in
  let rounds = ref 0 and messages = ref 0 in
  let phase_rounds = ref [] and phases = ref 0 in
  let tree = Spanning.bfs_tree g 0 in
  let progress = ref true in
  while Union_find.count uf > 1 && !progress do
    incr phases;
    let parts = fragments_of uf g in
    let sc = constructor tree parts in
    let values = mwoe_values g w uf in
    let result = Aggregate.minimum ?trace sc ~values in
    if not (Aggregate.verify sc ~values result) then
      failwith "Boruvka_ref.boruvka: aggregation produced a wrong minimum";
    let cost = overhead * result.Aggregate.stats.Network.rounds in
    rounds := !rounds + cost;
    messages := !messages + (overhead * result.Aggregate.stats.Network.messages);
    phase_rounds := cost :: !phase_rounds;
    let before = Union_find.count uf in
    merge_phase g uf result.Aggregate.mins parts mst_edges;
    progress := Union_find.count uf < before
  done;
  report ~phases:!phases ~rounds:!rounds ~messages:!messages
    ~phase_rounds:!phase_rounds w !mst_edges

let boruvka_full ?trace ~constructor g w =
  let n = Graph.n g in
  let uf = Union_find.create n in
  let mst_edges = ref [] in
  let rounds = ref 0 and messages = ref 0 in
  let phase_rounds = ref [] and phases = ref 0 in
  let tree = Spanning.bfs_tree g 0 in
  let progress = ref true in
  while Union_find.count uf > 1 && !progress do
    incr phases;
    let parts = fragments_of uf g in
    let sc = constructor tree parts in
    let values = mwoe_values g w uf in
    let result = Aggregate.minimum ?trace sc ~values in
    if not (Aggregate.verify sc ~values result) then
      failwith "Boruvka_ref.boruvka_full: MWOE aggregation wrong";
    let before = Union_find.count uf in
    merge_phase g uf result.Aggregate.mins parts mst_edges;
    progress := Union_find.count uf < before;
    let parts' = fragments_of uf g in
    let sc' = constructor tree parts' in
    let id_values = Array.init n (fun v -> Some (float_of_int v, v)) in
    let rename = Aggregate.minimum ?trace sc' ~values:id_values in
    if not (Aggregate.verify sc' ~values:id_values rename) then
      failwith "Boruvka_ref.boruvka_full: rename aggregation wrong";
    let cost =
      result.Aggregate.stats.Network.rounds + rename.Aggregate.stats.Network.rounds
    in
    rounds := !rounds + cost;
    messages :=
      !messages + result.Aggregate.stats.Network.messages
      + rename.Aggregate.stats.Network.messages;
    phase_rounds := cost :: !phase_rounds
  done;
  report ~phases:!phases ~rounds:!rounds ~messages:!messages
    ~phase_rounds:!phase_rounds w !mst_edges

let pipelined g w =
  let n = Graph.n g in
  let uf = Union_find.create n in
  let mst_edges = ref [] in
  let rounds = ref 0 and messages = ref 0 in
  let phase_rounds = ref [] and phases = ref 0 in
  let tree = Spanning.bfs_tree g 0 in
  let depth = Spanning.height tree in
  let sqrt_n = int_of_float (ceil (sqrt (float_of_int n))) in
  let min_fragment_size () =
    let sizes = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      let r = Union_find.find uf v in
      Hashtbl.replace sizes r (1 + Option.value (Hashtbl.find_opt sizes r) ~default:0)
    done;
    Hashtbl.fold (fun _ s acc -> min s acc) sizes max_int
  in
  while Union_find.count uf > 1 && min_fragment_size () < sqrt_n do
    incr phases;
    let parts = fragments_of uf g in
    let sc = Shortcuts.Shortcut.empty tree parts in
    let values = mwoe_values g w uf in
    let result = Aggregate.minimum sc ~values in
    let cost = 2 * result.Aggregate.stats.Network.rounds in
    rounds := !rounds + cost;
    messages := !messages + (2 * result.Aggregate.stats.Network.messages);
    phase_rounds := cost :: !phase_rounds;
    merge_phase g uf result.Aggregate.mins parts mst_edges
  done;
  while Union_find.count uf > 1 do
    incr phases;
    let parts = fragments_of uf g in
    let nf = Part.count parts in
    let cost = depth + nf in
    rounds := !rounds + cost;
    messages := !messages + ((depth + 1) * nf);
    phase_rounds := cost :: !phase_rounds;
    let values = mwoe_values g w uf in
    let mins = Aggregate.true_minimum parts ~values in
    merge_phase g uf mins parts mst_edges
  done;
  report ~phases:!phases ~rounds:!rounds ~messages:!messages
    ~phase_rounds:!phase_rounds w !mst_edges
