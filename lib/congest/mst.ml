module Graph = Graphlib.Graph
module Spanning = Graphlib.Spanning
module Union_find = Graphlib.Union_find
module Part = Shortcuts.Part
module Sc = Shortcuts.Shortcut

type constructor = Spanning.tree -> Part.t -> Sc.t

let shortcut_constructor tree parts = Shortcuts.Generic.construct tree parts
let no_shortcut_constructor tree parts = Sc.empty tree parts

type report = {
  phases : int;
  rounds : int;
  messages : int;  (* total simulated messages across all aggregations *)
  mst_edges : int list;
  mst_weight : float;
  phase_rounds : int list;
}

(* [root.(v) <- Union_find.find uf v] for every vertex: the fragment ids
   one phase reads, computed once *)
let find_roots uf root =
  for v = 0 to Array.length root - 1 do
    root.(v) <- Union_find.find uf v
  done

(* the fragments as parts, members ascending.  Part order is the order an
   OCaml Hashtbl folds its keys in, with roots first inserted while
   scanning [v = n-1 downto 0]: shortcut construction and aggregation send
   order depend on it, so it must not change.  A Hashtbl's layout depends
   only on the order keys are first inserted ([replace] on a present key
   updates it in place), so one [add] per distinct root reproduces it. *)
let fragments_of g root =
  let n = Graph.n g in
  (* [pid.(r)]: part id of root [r], -1 until [r] is first seen *)
  let pid = Array.make n (-1) in
  let seen = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let r = root.(v) in
    if pid.(r) < 0 then begin
      pid.(r) <- 0;
      Hashtbl.add seen r ()
    end
  done;
  let nparts = Hashtbl.length seen in
  let i = ref nparts in
  Hashtbl.iter
    (fun r () ->
      decr i;
      pid.(r) <- !i)
    seen;
  let part_of = Array.init n (fun v -> pid.(root.(v))) in
  (* counting pass: part sizes, then members in ascending order *)
  let fill = Array.make nparts 0 in
  Array.iter (fun p -> fill.(p) <- fill.(p) + 1) part_of;
  let parts = Array.map (fun s -> Array.make s 0) fill in
  Array.fill fill 0 nparts 0;
  Array.iteri
    (fun v p ->
      parts.(p).(fill.(p)) <- v;
      fill.(p) <- fill.(p) + 1)
    part_of;
  let t = { Part.parts; part_of } in
  match Part.check g t with
  | Ok () -> t
  | Error msg -> invalid_arg ("Mst.fragments_of: " ^ msg)

(* minimum-weight outgoing edge value per vertex, for the fragments [root]
   describes: the (weight, edge id)-least incident edge whose ends have
   different roots, first in adjacency order on ties *)
let mwoe_values g w root =
  let n = Graph.n g in
  let values = Array.make n None in
  for v = 0 to n - 1 do
    let rv = root.(v) in
    let best = ref (-1) in
    for pos = Graph.adj_offset g v to Graph.adj_offset g (v + 1) - 1 do
      if root.(Graph.adj_dst g pos) <> rv then begin
        let e = Graph.adj_eid g pos in
        let b = !best in
        if b < 0 || Aggregate.value_lt w.(e) e w.(b) b then best := e
      end
    done;
    let b = !best in
    if b >= 0 then values.(v) <- Some (w.(b), b)
  done;
  values

(* each fragment adopts the minimum (weight, edge) its members agreed on,
   then the winners merge in part order *)
let merge_phase g uf mins parts mst_edges =
  let nparts = Part.count parts in
  let key = Array.make nparts 0.0 and edge = Array.make nparts (-1) in
  Array.iteri
    (fun v m ->
      let p = parts.Part.part_of.(v) in
      if p >= 0 then
        match m with
        | Some (k, e) ->
            if edge.(p) < 0 || Aggregate.value_lt k e key.(p) edge.(p) then begin
              key.(p) <- k;
              edge.(p) <- e
            end
        | None -> ())
    mins;
  Array.iter
    (fun e ->
      if e >= 0 && Union_find.union uf (Graph.edge_u g e) (Graph.edge_v g e) then
        mst_edges := e :: !mst_edges)
    edge

let boruvka ?(overhead = 2) ?(max_rounds_per_phase = 2_000_000) ?trace ?faults
    ?(strict = true) ~constructor g w =
  Obs.Span.with_
    ~attrs:[ ("n", Obs.Sink.Int (Graph.n g)) ]
    "congest.mst.boruvka"
  @@ fun () ->
  let n = Graph.n g in
  let uf = Union_find.create n in
  let mst_edges = ref [] in
  let rounds = ref 0 in
  let messages = ref 0 in
  let phase_rounds = ref [] in
  let phases = ref 0 in
  let tree = Spanning.bfs_tree g 0 in
  let root = Array.make n 0 in
  let progress = ref true in
  while Union_find.count uf > 1 && !progress do
    incr phases;
    if !phases > 2 * n then failwith "Mst.boruvka: no progress";
    find_roots uf root;
    let parts = fragments_of g root in
    let sc = constructor tree parts in
    let values = mwoe_values g w root in
    let result =
      Aggregate.minimum ~max_rounds:max_rounds_per_phase ?trace ?faults sc
        ~values
    in
    if strict then begin
      if not result.Aggregate.stats.Network.converged then
        failwith "Mst.boruvka: aggregation did not converge";
      if not (Aggregate.verify sc ~values result) then
        failwith "Mst.boruvka: aggregation produced a wrong minimum"
    end;
    let cost = overhead * result.Aggregate.stats.Network.rounds in
    rounds := !rounds + cost;
    messages := !messages + (overhead * result.Aggregate.stats.Network.messages);
    phase_rounds := cost :: !phase_rounds;
    let before = Union_find.count uf in
    merge_phase g uf result.Aggregate.mins parts mst_edges;
    (* under faults a phase can lose every candidate; a best-effort run
       stops instead of spinning (the partial forest is the degraded
       answer), a strict run cannot get here *)
    progress := Union_find.count uf < before
  done;
  let mst_edges = !mst_edges in
  {
    phases = !phases;
    rounds = !rounds;
    messages = !messages;
    mst_edges;
    mst_weight = Spanning.total_weight w mst_edges;
    phase_rounds = List.rev !phase_rounds;
  }

let boruvka_full ?(max_rounds_per_phase = 2_000_000) ?trace ?faults
    ?(strict = true) ~constructor g w =
  Obs.Span.with_
    ~attrs:[ ("n", Obs.Sink.Int (Graph.n g)) ]
    "congest.mst.boruvka_full"
  @@ fun () ->
  let n = Graph.n g in
  let uf = Union_find.create n in
  let mst_edges = ref [] in
  let rounds = ref 0 in
  let messages = ref 0 in
  let phase_rounds = ref [] in
  let phases = ref 0 in
  let tree = Spanning.bfs_tree g 0 in
  let root = Array.make n 0 in
  let id_values = Array.init n (fun v -> Some (float_of_int v, v)) in
  let progress = ref true in
  while Union_find.count uf > 1 && !progress do
    incr phases;
    if !phases > 2 * n then failwith "Mst.boruvka_full: no progress";
    (* (a) MWOE aggregation on the current fragments *)
    find_roots uf root;
    let parts = fragments_of g root in
    let sc = constructor tree parts in
    let values = mwoe_values g w root in
    let result =
      Aggregate.minimum ~max_rounds:max_rounds_per_phase ?trace ?faults sc
        ~values
    in
    if strict && not (Aggregate.verify sc ~values result) then
      failwith "Mst.boruvka_full: MWOE aggregation wrong";
    let before = Union_find.count uf in
    merge_phase g uf result.Aggregate.mins parts mst_edges;
    progress := Union_find.count uf < before;
    (* (b) fragment renaming: every member of each *merged* fragment learns
       the new leader (minimum vertex id) by a second aggregation, over the
       new partition with its own shortcut *)
    find_roots uf root;
    let parts' = fragments_of g root in
    let sc' = constructor tree parts' in
    let rename =
      Aggregate.minimum ~max_rounds:max_rounds_per_phase ?trace ?faults sc'
        ~values:id_values
    in
    if strict && not (Aggregate.verify sc' ~values:id_values rename) then
      failwith "Mst.boruvka_full: rename aggregation wrong";
    let cost =
      result.Aggregate.stats.Network.rounds + rename.Aggregate.stats.Network.rounds
    in
    rounds := !rounds + cost;
    messages :=
      !messages + result.Aggregate.stats.Network.messages
      + rename.Aggregate.stats.Network.messages;
    phase_rounds := cost :: !phase_rounds
  done;
  let mst_edges = !mst_edges in
  {
    phases = !phases;
    rounds = !rounds;
    messages = !messages;
    mst_edges;
    mst_weight = Spanning.total_weight w mst_edges;
    phase_rounds = List.rev !phase_rounds;
  }

let pipelined g w =
  Obs.Span.with_
    ~attrs:[ ("n", Obs.Sink.Int (Graph.n g)) ]
    "congest.mst.pipelined"
  @@ fun () ->
  let n = Graph.n g in
  let uf = Union_find.create n in
  let mst_edges = ref [] in
  let rounds = ref 0 in
  let messages = ref 0 in
  let phase_rounds = ref [] in
  let phases = ref 0 in
  let tree = Spanning.bfs_tree g 0 in
  let depth = Spanning.height tree in
  let sqrt_n = int_of_float (ceil (sqrt (float_of_int n))) in
  let root = Array.make n 0 in
  (* refreshes [root] for the phase the loop test admits *)
  let min_fragment_size () =
    find_roots uf root;
    Array.fold_left (fun acc r -> Int.min acc (Union_find.size uf r)) max_int root
  in
  (* stage 1: flooding Boruvka until every fragment has >= sqrt n vertices *)
  while Union_find.count uf > 1 && min_fragment_size () < sqrt_n do
    incr phases;
    let parts = fragments_of g root in
    let sc = Sc.empty tree parts in
    let values = mwoe_values g w root in
    let result = Aggregate.minimum sc ~values in
    let cost = 2 * result.Aggregate.stats.Network.rounds in
    rounds := !rounds + cost;
    messages := !messages + (2 * result.Aggregate.stats.Network.messages);
    phase_rounds := cost :: !phase_rounds;
    merge_phase g uf result.Aggregate.mins parts mst_edges
  done;
  (* stage 2: pipelined convergecast over the BFS tree; each round of merging
     ships one candidate edge per fragment to the root: depth + #fragments
     rounds, the exact pipelining bound *)
  while Union_find.count uf > 1 do
    incr phases;
    find_roots uf root;
    let parts = fragments_of g root in
    let nf = Part.count parts in
    let cost = depth + nf in
    rounds := !rounds + cost;
    messages := !messages + ((depth + 1) * nf);
    phase_rounds := cost :: !phase_rounds;
    let values = mwoe_values g w root in
    (* the root computes every fragment's MWOE exactly *)
    let mins = Aggregate.true_minimum parts ~values in
    merge_phase g uf mins parts mst_edges
  done;
  let mst_edges = !mst_edges in
  {
    phases = !phases;
    rounds = !rounds;
    messages = !messages;
    mst_edges;
    mst_weight = Spanning.total_weight w mst_edges;
    phase_rounds = List.rev !phase_rounds;
  }

let check g w report =
  let n = Graph.n g in
  if List.length report.mst_edges <> n - 1 then Error "not n-1 edges"
  else begin
    let uf = Union_find.create n in
    let ok =
      List.for_all
        (fun e ->
          let u, v = Graph.edge g e in
          Union_find.union uf u v)
        report.mst_edges
    in
    if not ok then Error "reported edges contain a cycle"
    else begin
      let reference = Spanning.total_weight w (Spanning.kruskal g w) in
      if abs_float (reference -. report.mst_weight) > 1e-9 then
        Error
          (Printf.sprintf "weight %.9f differs from Kruskal %.9f" report.mst_weight
             reference)
      else Ok ()
    end
  end
