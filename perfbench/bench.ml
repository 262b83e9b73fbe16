(* The benchmark: three workloads over the library's public interfaces
   (Core, Serve, Exec, Memo), each checked against the library's
   sequential oracles.  One process runs one workload; perfbench/README.md
   says why each workload exists and which layer metric should move which
   end-to-end metric.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1
                    [--serve-rate QPS]

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 it carries the per-layer metrics, timed from here around
   the calls into each layer. *)

module G = Core.Graph
module W = Serve.Workload
module Server = Serve.Server
module Pool = Exec.Pool
module S = Perfbench_stats.Stats

let now = Core.Obs.Clock.now_ns
let secs_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9
let since t0 = secs_between t0 (now ())
let ms_of_ns ns = Int64.to_float ns /. 1e6

(* ---------- outcome accounting ---------- *)

let attempted = ref 0
let failed = ref 0
let pins_ok = ref true

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      Printf.printf "FAILED %s\n%!" msg)
    fmt

(* ---------- per-layer timers: only touched when tracing ---------- *)

let tracing = ref false
let layer : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value ~default:0.0 (Hashtbl.find_opt layer k)
let add k v = Hashtbl.replace layer k (get k +. v)

let timed key f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let r = f () in
    add key (since t0);
    r
  end

(* graphlib kernels also record their input edges and minor words *)
let kernel name ~edges f =
  if not !tracing then f ()
  else begin
    let w0 = Gc.minor_words () in
    let r = timed ("graphlib." ^ name ^ "_s") f in
    add "graphlib.minor_words" (Gc.minor_words () -. w0);
    add ("graphlib." ^ name ^ "_edges") (float_of_int (edges r));
    r
  end

(* The shortcut layer, wrapped as the constructor every shortcut-based
   primitive takes.  Quality counts are read outside the timed span. *)
let constructor : Core.Mst.constructor =
 fun tree parts ->
  if not !tracing then Core.Mst.shortcut_constructor tree parts
  else begin
    let sc = timed "shortcut.construct_s" (fun () -> Core.Generic.construct tree parts) in
    add "shortcut.constructions" 1.0;
    add "shortcut.congestion_sum" (float_of_int (Core.Shortcut.congestion sc));
    add "shortcut.block_sum" (float_of_int (Core.Shortcut.block_parameter sc));
    sc
  end

let prim_names = [ "bfs"; "sssp"; "aggregate"; "mst"; "mincut" ]

(* A congest entry point: its self time excludes the shortcut
   constructions it triggers, which the constructor timer already owns. *)
let congest p f =
  if not !tracing then f ()
  else begin
    let nested0 = get "shortcut.construct_s" in
    let t0 = now () in
    let r = f () in
    let total = since t0 in
    let nested = get "shortcut.construct_s" -. nested0 in
    add ("congest." ^ p ^ "_self_s") (S.self_time ~total ~nested);
    add ("congest." ^ p ^ "_calls") 1.0;
    r
  end

let congest_counts p ~rounds tr =
  if !tracing then begin
    add ("congest." ^ p ^ "_rounds") (float_of_int rounds);
    add ("congest." ^ p ^ "_messages") (float_of_int (Core.Trace.messages tr));
    add ("congest." ^ p ^ "_words") (float_of_int (Core.Trace.words tr))
  end

(* A traced run first measures [f] untraced, for trace.overhead, then
   starts the traced measurement from empty timers. *)
let untraced f =
  tracing := false;
  let r = f () in
  Hashtbl.reset layer;
  tracing := true;
  r

(* Memo traffic over a traced body, from Memo.stats deltas. *)
let record_memo (m0 : Memo.stats) =
  if !tracing then begin
    let m1 = Memo.stats () in
    let hits = m1.Memo.hits - m0.Memo.hits in
    let lookups = hits + m1.Memo.misses - m0.Memo.misses in
    add "memo.lookups" (float_of_int lookups);
    add "memo.hit_ratio" (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups);
    add "memo.bytes" (float_of_int (m1.Memo.bytes - m0.Memo.bytes))
  end

(* ---------- metric output ---------- *)

let out : (string * float * string) list ref = ref []

let emit ?(detail = "") name unit value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not a finite number" name);
  out := (name, value, unit) :: !out;
  Printf.printf "metric %-30s %16.6f %-8s %s\n" name value unit detail

let emit_percentile name samples p =
  emit name "ms" (S.percentile samples p) ~detail:(S.describe samples p)

let print_result () =
  let metrics =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      !out
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0 && !pins_ok) !attempted !failed (String.concat ", " metrics)

let rss_mb () =
  float_of_int (Option.value ~default:0 (Core.Obs.Rusage.max_rss_kb ())) /. 1024.0

(* ---------- pinned exact counts (perfbench/expected.txt) ---------- *)

(* Lines "<workload> <seed> <seconds> <key> <value>".  A count recorded
   for this seed and run length must repeat exactly, so a change that
   alters what is computed fails here instead of looking faster. *)
let expected_file = "perfbench/expected.txt"

let load_expected ~workload ~seed ~seconds =
  let run = Printf.sprintf "%s %d %g" workload seed seconds in
  let ic = open_in expected_file in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        acc
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ w; s; t; k; v ] when String.concat " " [ w; s; t ] = run -> loop ((k, v) :: acc)
        | _ -> loop acc)
  in
  (run, loop [])

let pin (run, expected) key value =
  Printf.printf "pinned %s %s %s" run key value;
  match List.assoc_opt key expected with
  | None -> print_string " (no record for this seed)\n"
  | Some v when v = value -> print_string " (matches)\n"
  | Some v ->
      pins_ok := false;
      Printf.printf " MISMATCH: expected %s\n" v

let float_pin x = Printf.sprintf "%.17g" x

(* Set-up runs [setup_reps] times from an empty cache; the median is
   setup_s.  Every result but the last is [release]d, untimed. *)
let setup_reps = 5

let timed_setup ?(release = ignore) f =
  let times = Array.make setup_reps 0.0 in
  let last = ref None in
  for i = 0 to setup_reps - 1 do
    Option.iter release !last;
    Memo.clear ();
    Gc.full_major ();
    let t0 = now () in
    let v = f () in
    times.(i) <- since t0;
    last := Some v
  done;
  Printf.printf "set-up times: %s s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") times)));
  (S.median times, Option.get !last)

(* ---------- solve-minor-free ---------- *)

type case = { cname : string; g : G.t; min_cut : float Lazy.t }

(* The graph set is fixed; the run seed varies only what each solve is
   asked (roots, weights, parts, tree samples), so seeds compare like
   with like. *)
let minor_free_graphs () =
  let gen name f = (name, timed "graphlib.gen_s" f) in
  let clique_sum () =
    timed "structure.gen_s" (fun () ->
        let pieces =
          List.map
            (fun seed ->
              (Core.Almost_embeddable.make ~seed ~width:16 ~height:10 ~handles:1 ~vortices:1
                 ~vortex_depth:2 ~vortex_nodes:4 ~apices:1 ~apex_fanout:5)
                .Core.Almost_embeddable.graph)
            [ 4; 5; 6 ]
        in
        let cs = Core.Clique_sum.compose ~seed:7 ~k:3 ~shape:Core.Clique_sum.Random_tree pieces in
        (match Core.Clique_sum.check cs with
        | Ok () -> ()
        | Error e -> failwith ("clique-sum witness invalid: " ^ e));
        ("clique-sum-L3", cs.Core.Clique_sum.graph))
  in
  let graphs =
    [
      gen "grid-16x16" (fun () -> (Core.Generators.grid 16 16).Core.Generators.graph);
      gen "apollonian-300" (fun () ->
          (Core.Generators.apollonian ~seed:1 300).Core.Generators.graph);
      gen "3-tree-300" (fun () -> fst (Core.Generators.k_tree ~seed:2 ~k:3 300));
      gen "torus-16x16" (fun () -> Core.Generators.torus_grid 16 16);
      gen "apex-grid-14x14" (fun () ->
          Core.Generators.add_apices ~seed:3
            (Core.Generators.grid 14 14).Core.Generators.graph ~q:2 ~fanout:12);
      clique_sum ();
    ]
  in
  List.map
    (fun (cname, g) ->
      { cname; g; min_cut = lazy (Core.Mincut.stoer_wagner g (G.unit_weights g)) })
    graphs

type solved = {
  rounds : int;
  messages : int;
  mst_weight : float;
  check : unit -> string option;  (** oracle, run outside the timed span *)
}

let solve case prim rng =
  let g = case.g in
  let n = G.n g in
  let tr = Core.Trace.create g in
  let finish ?(mst_weight = 0.0) rounds check =
    congest_counts prim ~rounds tr;
    { rounds; messages = Core.Trace.messages tr; mst_weight; check }
  in
  let expect ok what () = if ok () then None else Some what in
  match prim with
  | "bfs" ->
      let root = Random.State.int rng n in
      let states, st = congest "bfs" (fun () -> Core.Dist_bfs.run ~trace:tr g ~root) in
      finish st.Core.Network.rounds
        (expect
           (fun () ->
             let ref_dist = Core.Traversal.bfs g root in
             Array.for_all2 (fun s d -> s.Core.Dist_bfs.dist = d) states ref_dist)
           "BFS distances differ from Traversal.bfs")
  | "sssp" ->
      let source = Random.State.int rng n in
      let w = G.random_weights ~state:rng g in
      let r = congest "sssp" (fun () -> Core.Sssp.bellman_ford ~trace:tr g w ~source) in
      finish r.Core.Sssp.stats.Core.Network.rounds
        (expect (fun () -> Core.Sssp.verify g w ~source r) "SSSP differs from Dijkstra")
  | "aggregate" ->
      let parts = Core.Part.voronoi ~seed:(Random.State.bits rng) g ~count:(max 2 (n / 24)) in
      let tree = Core.Spanning.bfs_tree g (Random.State.int rng n) in
      let sc = constructor tree parts in
      let values = Array.init n (fun v -> Some (Random.State.float rng 1.0, v)) in
      let r = congest "aggregate" (fun () -> Core.Aggregate.minimum ~trace:tr sc ~values) in
      finish r.Core.Aggregate.stats.Core.Network.rounds
        (expect (fun () -> Core.Aggregate.verify sc ~values r) "part-wise minimum wrong")
  | "mst" ->
      let w = G.random_weights ~state:rng g in
      let r = congest "mst" (fun () -> Core.Mst.boruvka ~trace:tr ~constructor g w) in
      finish ~mst_weight:r.Core.Mst.mst_weight r.Core.Mst.rounds (fun () ->
          match Core.Mst.check g w r with Ok () -> None | Error e -> Some ("MST: " ^ e))
  | "mincut" ->
      let w = G.unit_weights g in
      let seed = Random.State.bits rng in
      let r =
        congest "mincut" (fun () ->
            Core.Mincut.approx ~trees:4 ~seed ~trace:tr ~constructor g w)
      in
      finish r.Core.Mincut.rounds
        (expect
           (fun () -> r.Core.Mincut.estimate >= Lazy.force case.min_cut -. 1e-9)
           "min-cut estimate below Stoer-Wagner")
  | p -> invalid_arg p

(* Solves run in whole cycles over every (graph, primitive) pair, each
   solve with its own seed.  The work is fixed by [seconds] at the cycle
   time measured when the benchmark was defined (2 vCPU host), so counts
   and memory repeat for a seed however fast the program is. *)
let nominal_cycle_s = 0.8

let run_solves cases ~seed ~cycles =
  let combos =
    Array.of_list
      (List.concat_map (fun c -> List.map (fun p -> (c, p)) prim_names) cases)
  in
  let per_cycle = Array.length combos in
  let lat = ref [] and rates = ref [] and busy = ref 0.0 and edges = ref 0 in
  let rounds = ref 0 and msgs = ref 0 and weight = ref 0.0 in
  for cycle = 0 to cycles - 1 do
    let busy0 = !busy in
    for i = 0 to per_cycle - 1 do
      let case, prim = combos.(i) in
      let rng = Random.State.make [| seed; (cycle * per_cycle) + i; 5 |] in
      incr attempted;
      let t0 = now () in
      match solve case prim rng with
      | r ->
          let dt = since t0 in
          busy := !busy +. dt;
          lat := (dt *. 1e3) :: !lat;
          edges := !edges + G.m case.g;
          rounds := !rounds + r.rounds;
          msgs := !msgs + r.messages;
          weight := !weight +. r.mst_weight;
          Option.iter (fail "%s on %s: %s" prim case.cname) (r.check ())
      | exception e -> fail "%s on %s raised %s" prim case.cname (Printexc.to_string e)
    done;
    rates := (float_of_int per_cycle /. (!busy -. busy0)) :: !rates
  done;
  (Array.of_list !lat, Array.of_list !rates, !busy, !edges, (!rounds, !msgs, !weight))

let solve_minor_free ~seed ~seconds ~expected =
  let pin = pin expected in
  let setup_s, cases = timed_setup minor_free_graphs in
  let gen_s = get "graphlib.gen_s" /. float_of_int setup_reps in
  let struct_s = get "structure.gen_s" /. float_of_int setup_reps in
  List.iter
    (fun c -> Printf.printf "graph %-18s n=%d m=%d\n" c.cname (G.n c.g) (G.m c.g))
    cases;
  let cycles = max 2 (int_of_float (Float.round (seconds /. nominal_cycle_s))) in
  let overhead =
    if not !tracing then 0.0
    else
      untraced (fun () ->
          let _, rates, _, _, _ = run_solves cases ~seed:(seed + 1_000_003) ~cycles:(cycles / 2) in
          S.median rates)
  in
  let memo0 = Memo.stats () in
  let lat, rates, busy, edges, (rounds, msgs, weight) = run_solves cases ~seed ~cycles in
  record_memo memo0;
  pin "sim_rounds" (string_of_int rounds);
  pin "sim_messages" (string_of_int msgs);
  pin "mst_weight_sum" (float_pin weight);
  if !tracing then begin
    pin "shortcut_congestion_sum" (Printf.sprintf "%.0f" (get "shortcut.congestion_sum"));
    pin "shortcut_block_sum" (Printf.sprintf "%.0f" (get "shortcut.block_sum"));
    add "graphlib.gen_s" gen_s;
    add "structure.gen_s" struct_s;
    add "trace.overhead" ((overhead /. S.median rates) -. 1.0)
  end
  else begin
    emit "setup_s" "s" setup_s;
    emit "peak_rss_mb" "MiB" (rss_mb ());
    emit "solves_per_s" "1/s" (S.median rates)
      ~detail:(Printf.sprintf "median of %d cycles of %d solves" cycles (List.length cases * 5));
    emit_percentile "solve_p50_ms" lat 50.0;
    emit_percentile "solve_p90_ms" lat 90.0;
    emit "sim_rounds" "count" (float_of_int rounds);
    emit "sim_messages" "count" (float_of_int msgs);
    emit "scale_edges_per_s" "1/s" (float_of_int edges /. busy);
  end

(* ---------- substrate-scale ---------- *)

type scale_op = { label : string; secs : float }

(* BFS oracle: the labels must satisfy the BFS conditions.  Returns what
   a flooding BFS would cost in CONGEST: rounds = eccentricity + 1,
   messages = degree sum of the reached vertices. *)
let check_bfs name g src dist =
  let ok = ref (dist.(src) = 0) and ecc = ref 0 and msgs = ref 0 in
  for v = 0 to G.n g - 1 do
    let dv = dist.(v) in
    if dv >= 0 then begin
      ecc := max !ecc dv;
      msgs := !msgs + G.degree g v;
      let has_parent = ref (v = src) in
      G.iter_adj g v (fun u _ ->
          let du = dist.(u) in
          if du < 0 || abs (du - dv) > 1 then ok := false;
          if du = dv - 1 then has_parent := true);
      if not !has_parent then ok := false
    end
  done;
  if not !ok then fail "%s: BFS labels from %d are not BFS distances" name src;
  (!ecc + 1, !msgs)

(* MST oracle: the Boruvka forest must weigh what Kruskal's does and span
   every component.  Returns its weight. *)
let check_mst name g w tree =
  let weight = Core.Spanning.total_weight w tree in
  let kruskal = Core.Spanning.total_weight w (Core.Spanning.kruskal g w) in
  if not (Float.equal weight kruskal) then
    fail "%s: Boruvka weight %.17g differs from Kruskal %.17g" name weight kruskal;
  let _, comps = Core.Traversal.components g in
  if List.length tree <> G.n g - comps then
    fail "%s: forest has %d edges" name (List.length tree);
  weight

(* BFS roots per graph, Graph500-style: vertices 0..7, which on RMAT are
   hubs inside the giant component (a random vertex is often isolated). *)
let bfs_roots = 8

(* One pass of the S1 path: a grid streamed into the CSR builder and an
   RMAT sample, each then BFS'd and spanned by Boruvka and checked before
   the next graph is built.  Returns the timed kernel calls, the input
   edges, and per graph the oracle counts. *)
let scale_pass ?(verbose = false) ~side ~scale ~edge_factor rng =
  let ops = ref [] and edges = ref 0 in
  let op label f =
    let t0 = now () in
    let r = f () in
    ops := { label; secs = since t0 } :: !ops;
    r
  in
  let process name g =
    let m = G.m g in
    edges := !edges + m;
    if verbose then
      Printf.printf "graph %-16s n=%d m=%d csr=%.1f MiB\n" name (G.n g) m
        (float_of_int (G.heap_bytes g) /. 1048576.0);
    let bfs =
      List.init bfs_roots (fun src ->
          let dist =
            op (name ^ " bfs") (fun () ->
                kernel "bfs" ~edges:(fun _ -> m) (fun () -> Core.Traversal.bfs g src))
          in
          check_bfs name g src dist)
    in
    let w = G.random_weights ~state:rng g in
    let tree =
      op (name ^ " mst") (fun () ->
          kernel "mst" ~edges:(fun _ -> m) (fun () ->
              Core.Spanning.mst ~strategy:Core.Spanning.Boruvka g w))
    in
    (bfs, check_mst name g w tree)
  in
  let grid =
    op "grid build" (fun () ->
        let b = G.Builder.create ~edges_hint:(2 * side * side) (side * side) in
        for y = 0 to side - 1 do
          for x = 0 to side - 1 do
            let v = (y * side) + x in
            if x + 1 < side then G.Builder.add_edge b v (v + 1);
            if y + 1 < side then G.Builder.add_edge b v (v + side)
          done
        done;
        kernel "seal" ~edges:G.m (fun () -> G.Builder.build b))
  in
  let c1 = process (Printf.sprintf "grid-%dx%d" side side) grid in
  let rmat_seed = Random.State.bits rng in
  let rmat =
    op "rmat gen" (fun () ->
        kernel "rmat" ~edges:G.m (fun () ->
            Core.Generators.rmat ~seed:rmat_seed ~scale ~edge_factor ()))
  in
  let c2 = process (Printf.sprintf "rmat-s%d-ef%d" scale edge_factor) rmat in
  (List.rev !ops, !edges, [ c1; c2 ])

(* Whole passes, fixed by [seconds] at the pass time measured when the
   benchmark was defined (2 vCPU host); the counts pinned per seed are
   those of the first pass. *)
let nominal_pass_s = 16.0

let run_scale ~side ~scale ~edge_factor ~seed ~passes =
  let busy = ref 0.0 and ops = ref [] and edges = ref 0 and pinned = ref None in
  for pass = 0 to passes - 1 do
    let rng = Random.State.make [| seed; pass; 3 |] in
    attempted := !attempted + 4 + (2 * bfs_roots);
    match scale_pass ~verbose:(pass = 0) ~side ~scale ~edge_factor rng with
    | pass_ops, pass_edges, counts ->
        if pass = 0 then pinned := Some (pass_edges, counts);
        List.iter (fun o -> busy := !busy +. o.secs) pass_ops;
        ops := !ops @ pass_ops;
        edges := !edges + pass_edges
    | exception e -> fail "scale pass raised %s" (Printexc.to_string e)
  done;
  (!ops, !busy, !edges, Option.get !pinned)

let substrate_scale ~seed ~seconds ~expected =
  let pin = pin expected in
  (* grid: 2^20 nodes; RMAT: a CSR larger than a 300 MiB last-level cache *)
  let side = 1024 and scale = 20 and edge_factor = 6 in
  let passes = max 1 (int_of_float (Float.round (seconds /. nominal_pass_s))) in
  (* set-up pays the one-time costs (code, heap growth, lazy tables) on a
     small pass, so the measured passes see a warm process *)
  let setup_s, _ =
    timed_setup (fun () ->
        scale_pass ~side:128 ~scale:14 ~edge_factor (Random.State.make [| seed |]))
  in
  let overhead =
    if not !tracing then 0.0
    else
      untraced (fun () ->
          let _, busy, edges, _ =
            run_scale ~side ~scale ~edge_factor ~seed:(seed + 1_000_003)
              ~passes:(max 1 (passes / 2))
          in
          busy /. float_of_int edges)
  in
  let memo0 = Memo.stats () in
  let ops, busy, edges, (pass_edges, counts) =
    run_scale ~side ~scale ~edge_factor ~seed ~passes
  in
  record_memo memo0;
  let bfs = List.concat_map fst counts in
  let rounds = List.fold_left (fun a (r, _) -> a + r) 0 bfs in
  let msgs = List.fold_left (fun a (_, m) -> a + m) 0 bfs in
  let weight = List.fold_left (fun a (_, w) -> a +. w) 0.0 counts in
  pin "edges" (string_of_int pass_edges);
  pin "sim_rounds" (string_of_int rounds);
  pin "sim_messages" (string_of_int msgs);
  pin "mst_weight_sum" (float_pin weight);
  List.iter (fun o -> Printf.printf "op %-22s %.3f s\n" o.label o.secs) ops;
  let lat = Array.of_list (List.map (fun o -> o.secs *. 1e3) ops) in
  let count = float_of_int (Array.length lat) in
  if !tracing then begin
    add "trace.overhead" ((busy /. float_of_int edges /. overhead) -. 1.0)
  end
  else begin
    emit "setup_s" "s" setup_s;
    emit "peak_rss_mb" "MiB" (rss_mb ());
    emit "solves_per_s" "1/s" (count /. busy) ~detail:"kernel calls";
    emit_percentile "solve_p50_ms" lat 50.0;
    emit_percentile "solve_p90_ms" lat 90.0;
    emit "sim_rounds" "count" (float_of_int rounds) ~detail:"flooding BFS, first pass";
    emit "sim_messages" "count" (float_of_int msgs) ~detail:"flooding BFS, first pass";
    emit "scale_edges_per_s" "1/s" (float_of_int edges /. busy)
  end

(* ---------- serve-mixed ---------- *)

let fleet = W.default_fleet

(* The benchmark's own query mix, dealt from shuffled decks of 200: each
   (graph, qseed) pair of the fleet 4 times as BFS, 3 as SSSP, 2 as MST and
   once as min-cut — 40/30/20/10, qseed in 0..3 so queries repeat — so
   every 200 queries carry the same work whatever the seed. *)
let distinct_queries =
  Array.of_list
    (List.concat_map
       (fun spec ->
         List.concat_map
           (fun qseed -> List.map (fun kind -> { W.spec; kind; qseed }) [ W.Bfs; W.Sssp; W.Mst; W.Mincut ])
           [ 0; 1; 2; 3 ])
       (Array.to_list fleet))

let deck =
  let copies = function W.Bfs -> 4 | W.Sssp -> 3 | W.Mst -> 2 | W.Mincut -> 1 in
  Array.concat (List.map (fun q -> Array.make (copies q.W.kind) q) (Array.to_list distinct_queries))

let query_stream rng =
  let d = Array.copy deck and i = ref (Array.length deck) in
  fun () ->
    if !i = Array.length d then begin
      for k = Array.length d - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let t = d.(k) in
        d.(k) <- d.(j);
        d.(j) <- t
      done;
      i := 0
    end;
    incr i;
    d.(!i - 1)

let fleet_index (q : W.query) =
  let name = W.spec_name q.spec in
  let rec find i = if W.spec_name fleet.(i) = name then i else find (i + 1) in
  find 0

let query_key (q : W.query) = (W.spec_name q.spec, W.kind_name q.kind, q.qseed)

(* Oracle per distinct query: the sequential answer, plus the simulated
   messages of the same computation, which the response does not carry.
   The second run repeats Workload.run's parameters through Core; its
   rounds must agree with the oracle's.  When tracing, it is also where
   the congest layer is timed for this workload. *)
let oracles : (string * string * int, W.response * int) Hashtbl.t = Hashtbl.create 97

let oracle (q : W.query) =
  let key = query_key q in
  match Hashtbl.find_opt oracles key with
  | Some o -> o
  | None ->
      let expect = W.run_sequential q in
      let g = W.graph q.spec in
      let n = G.n g in
      let tr = Core.Trace.create g in
      let p = W.kind_name q.kind in
      let rounds =
        congest p (fun () ->
            match q.kind with
            | W.Bfs ->
                (snd (Core.Dist_bfs.run ~trace:tr g ~root:(q.qseed mod n))).Core.Network.rounds
            | W.Sssp ->
                (Core.Sssp.unweighted ~trace:tr g ~source:(q.qseed mod n)).Core.Sssp.stats
                  .Core.Network.rounds
            | W.Mst ->
                let w = G.random_weights ~state:(Core.Rng.algo (q.qseed + 17)) g in
                (Core.Mst.boruvka ~trace:tr ~constructor g w).Core.Mst.rounds
            | W.Mincut ->
                (Core.Mincut.approx ~trees:4 ~seed:(q.qseed + 1) ~trace:tr ~constructor g
                   (G.unit_weights g))
                  .Core.Mincut.rounds)
      in
      congest_counts p ~rounds tr;
      if rounds <> expect.W.rounds then
        fail "%s/%s/%d: re-run took %d rounds, the oracle %d" (W.spec_name q.spec) p q.qseed
          rounds expect.W.rounds;
      let o = (expect, Core.Trace.messages tr) in
      Hashtbl.replace oracles key o;
      o

let check_completion (c : Server.completion) =
  let expect, _ = oracle c.query in
  if not (W.response_equal expect c.response) then
    fail "%s/%s/%d: served %d rounds, value %.17g; oracle %d, %.17g"
      (W.spec_name c.query.spec) (W.kind_name c.query.kind) c.query.qseed c.response.rounds
      c.response.value expect.W.rounds expect.W.value

(* The sequence number of an accepted query; a shed query is a failure. *)
let submit server ?arrival_ns q =
  incr attempted;
  match Server.submit ?arrival_ns server q with
  | Server.Accepted seq -> Some seq
  | Server.Rejected ->
      fail "query shed by admission control";
      None

type round = { served : Server.completion list; secs : float; latency : float array }

(* Closed loop: top the admission queue up to its bound and drain it,
   [rounds] times.  Per round: the completions, the wall time, and each
   query's latency from submission. *)
let closed_loop server next_query ~rounds =
  let depth = (Server.config server).Server.queue_depth in
  let one () =
    let r0 = now () in
    (* each refill is submitted in fleet order, so every round's batches
       run in the same graph order and its latencies have the same shape *)
    List.init (depth - Server.pending server) (fun _ -> next_query ())
    |> List.stable_sort (fun (a : W.query) b -> Int.compare (fleet_index a) (fleet_index b))
    |> List.iter (fun q -> ignore (submit server q));
    let served = timed "serve.drain_s" (fun () -> Server.drain server) in
    let secs = since r0 in
    let latency = Array.of_list (List.map (fun (c : Server.completion) -> c.latency_ms) served) in
    { served; secs; latency }
  in
  List.init rounds (fun _ -> one ())

(* A per-round statistic, median over the rounds: the first rounds after
   set-up ran up to 3x slower than the rest, and the median ignores them. *)
let over_rounds rs f = S.median (Array.of_list (List.map f rs))

let queries_per_s r = float_of_int (List.length r.served) /. r.secs

type open_result = {
  latency : float array;
  wait : float array;
  service : float array;
  lag : float array;
  completions : Server.completion list;
  hwm : int;
}

(* Open loop: Poisson arrivals at [rate], each submitted when due with its
   scheduled arrival, so latency counts from the schedule; whatever is
   pending is drained whenever the driver has caught up. *)
let open_loop server next_query rng ~rate ~count =
  let queries = Array.init count (fun _ -> next_query ()) in
  let offsets = S.poisson_offsets_ns ~rng ~rate count in
  let start = Int64.add (now ()) 1_000_000L in
  let due i = Int64.add start offsets.(i) in
  let next = ref 0 and hwm = ref 0 in
  let lag = ref [] and wait = ref [] and service = ref [] and latency = ref [] in
  let completions = ref [] in
  let arrival = Hashtbl.create count in
  while !next < count || Server.pending server > 0 do
    let t = now () in
    while !next < count && due !next <= t do
      let sched = due !next in
      let submitted = now () in
      lag := ms_of_ns (S.lag_ns ~scheduled:sched ~submitted) :: !lag;
      Option.iter
        (fun seq -> Hashtbl.replace arrival seq sched)
        (submit server ~arrival_ns:sched queries.(!next));
      incr next
    done;
    let pending = Server.pending server in
    if pending > 0 then begin
      hwm := max !hwm pending;
      let drain_start = now () in
      List.iter
        (fun (c : Server.completion) ->
          let sched = Hashtbl.find arrival c.seq in
          let w = ms_of_ns (S.since_due_ns ~due:sched drain_start) in
          latency := c.latency_ms :: !latency;
          wait := w :: !wait;
          service := (c.latency_ms -. w) :: !service;
          completions := c :: !completions)
        (timed "serve.drain_s" (fun () -> Server.drain server))
    end
    else if !next < count then begin
      (* sleep through long gaps and spin through the last half
         millisecond: waking a halted vCPU takes about that long *)
      let gap = secs_between (now ()) (due !next) in
      if gap > 1e-3 then Unix.sleepf (gap -. 5e-4) else Domain.cpu_relax ()
    end
  done;
  let arr l = Array.of_list !l in
  {
    latency = arr latency;
    wait = arr wait;
    service = arr service;
    lag = arr lag;
    completions = !completions;
    hwm = !hwm;
  }

let nominal_capacity = 900.0

let serve_mixed ~seed ~seconds ~rate ~expected =
  let pin = pin expected in
  (* set-up: spawn the pool, resolve the fleet and answer every distinct
     query once, so the measured phases start with a warm cache.  The
     answers run on the calling domain: through the pool, set-up time was
     bimodal between runs (about 0.13 s or 0.28 s). *)
  let setup_s, server =
    timed_setup
      ~release:(fun server -> Pool.shutdown (Server.pool server))
      (fun () ->
        let pool = Pool.create ~jobs:2 in
        (* one sweep, so the worker domain has started before timing *)
        ignore (Pool.map_cells pool ~f:(fun i _ -> i) (Array.make 64 ()));
        Array.iter (fun spec -> ignore (timed "graphlib.gen_s" (fun () -> W.graph spec))) fleet;
        Array.iter (fun q -> ignore (W.run_sequential q)) distinct_queries;
        Server.create pool)
  in
  let gen_s = get "graphlib.gen_s" /. float_of_int setup_reps in
  let pool = Server.pool server in
  (* a third of the time in the closed loop, at the capacity measured when
     the benchmark was defined (2 vCPU host), the rest in the open loop *)
  let depth = float_of_int (Server.config server).Server.queue_depth in
  let rounds = max 2 (int_of_float (Float.round (seconds /. 3.0 *. nominal_capacity /. depth))) in
  let stream k = query_stream (Random.State.make [| seed; k |]) in
  let overhead =
    if not !tracing then 0.0
    else
      untraced (fun () ->
          over_rounds (closed_loop server (stream 17) ~rounds:(max 1 (rounds / 2))) queries_per_s)
  in
  let memo0 = Memo.stats () and steals0 = Pool.steal_count pool in
  let stats0 = Server.stats server in
  let closed = closed_loop server (stream 13) ~rounds in
  let closed_done = List.concat_map (fun r -> r.served) closed in
  let count = max 1000 (int_of_float (rate *. seconds *. 2.0 /. 3.0)) in
  let o = open_loop server (stream 14) (Random.State.make [| seed; 15 |]) ~rate ~count in
  record_memo memo0;
  let steals1 = Pool.steal_count pool in
  let stats1 = Server.stats server in
  Pool.shutdown pool;
  (* oracles run after the timed phases *)
  List.iter check_completion closed_done;
  List.iter check_completion o.completions;
  let sim_rounds, msgs =
    List.fold_left
      (fun (r, m) (c : Server.completion) -> (r + c.response.W.rounds, m + snd (oracle c.query)))
      (0, 0) o.completions
  in
  pin "sim_rounds" (string_of_int sim_rounds);
  pin "sim_messages" (string_of_int msgs);
  let capacity = over_rounds closed queries_per_s in
  Printf.printf "closed-loop rounds (queries/s): %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (queries_per_s r)) closed));
  if !tracing then begin
    let batches = stats1.Server.batches - stats0.Server.batches in
    let completed = stats1.Server.completed - stats0.Server.completed in
    add "graphlib.gen_s" gen_s;
    add "exec.steals" (float_of_int (steals1 - steals0));
    add "serve.batches" (float_of_int batches);
    add "serve.batch_size_mean" (float_of_int completed /. float_of_int (max 1 batches));
    add "serve.queue_hwm" (float_of_int o.hwm);
    add "serve.rejected" (float_of_int (stats1.Server.rejected - stats0.Server.rejected));
    add "serve.open_p50_ms" (S.percentile o.latency 50.0);
    add "serve.open_p99_ms" (S.percentile o.latency 99.0);
    add "serve.queue_wait_p50_ms" (S.percentile o.wait 50.0);
    add "serve.queue_wait_p99_ms" (S.percentile o.wait 99.0);
    add "serve.service_p50_ms" (S.percentile o.service 50.0);
    add "serve.service_p99_ms" (S.percentile o.service 99.0);
    add "driver.lag_p99_ms" (S.percentile o.lag 99.0);
    add "trace.overhead" ((overhead /. capacity) -. 1.0)
  end
  else begin
    emit "setup_s" "s" setup_s;
    emit "peak_rss_mb" "MiB" (rss_mb ());
    (* the closed loop is the solve loop here: a full queue, capacity-bound *)
    emit "solves_per_s" "1/s" capacity
      ~detail:(Printf.sprintf "closed loop, median of %d rounds" rounds);
    List.iter
      (fun (name, p) ->
        let r = List.hd closed in
        emit name "ms"
          (over_rounds closed (fun r -> S.percentile r.latency p))
          ~detail:
            (Printf.sprintf "median over %d rounds; per round %s" rounds (S.describe r.latency p)))
      [ ("solve_p50_ms", 50.0); ("solve_p90_ms", 90.0) ];
    emit "sim_rounds" "count" (float_of_int sim_rounds) ~detail:"open-loop queries";
    emit "sim_messages" "count" (float_of_int msgs) ~detail:"open-loop queries";
    let edges r =
      List.fold_left (fun a (c : Server.completion) -> a + G.m (W.graph c.query.spec)) 0 r.served
    in
    emit "scale_edges_per_s" "1/s" (over_rounds closed (fun r -> float_of_int (edges r) /. r.secs));
    Printf.printf "open loop: p50 %.3f ms (%s), p99 %.3f ms (%s)\n"
      (S.percentile o.latency 50.0) (S.describe o.latency 50.0)
      (S.percentile o.latency 99.0) (S.describe o.latency 99.0);
    Printf.printf "open loop: %d queries at %.0f/s, lag p99 %.3f ms (%s)\n" count rate
      (S.percentile o.lag 99.0) (S.describe o.lag 99.0)
  end

(* ---------- per-layer output (traced runs) ---------- *)

let kernels = [ "rmat"; "seal"; "bfs"; "mst" ]

let emit_layers () =
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  List.iter
    (fun k ->
      let s = get ("graphlib." ^ k ^ "_s") in
      emit ("graphlib." ^ k ^ "_s") "s" s;
      emit ("graphlib." ^ k ^ "_edges_per_s") "1/s" (ratio (get ("graphlib." ^ k ^ "_edges")) s))
    kernels;
  emit "graphlib.minor_words" "words" (get "graphlib.minor_words");
  emit "graphlib.gen_s" "s" (get "graphlib.gen_s");
  emit "structure.gen_s" "s" (get "structure.gen_s");
  emit "shortcut.construct_s" "s" (get "shortcut.construct_s");
  emit "shortcut.constructions" "count" (get "shortcut.constructions");
  (* of the time in the congest and shortcut layers, the share spent
     constructing shortcuts *)
  let construct = get "shortcut.construct_s" in
  let congest_self =
    List.fold_left (fun a p -> a +. get ("congest." ^ p ^ "_self_s")) 0.0 prim_names
  in
  emit "shortcut.construct_share" "ratio" (ratio construct (construct +. congest_self));
  emit "shortcut.congestion_sum" "count" (get "shortcut.congestion_sum");
  emit "shortcut.block_sum" "count" (get "shortcut.block_sum");
  List.iter
    (fun p ->
      let key k = Printf.sprintf "congest.%s_%s" p k in
      let msgs = get (key "messages") in
      emit (key "self_s") "s" (get (key "self_s"));
      emit (key "calls") "count" (get (key "calls"));
      emit (key "rounds") "count" (get (key "rounds"));
      emit (key "messages") "count" msgs;
      emit (key "ns_per_msg") "ns" (ratio (get (key "self_s") *. 1e9) msgs);
      emit (key "words_per_msg") "words" (ratio (get (key "words")) msgs))
    prim_names;
  emit "memo.hit_ratio" "ratio" (get "memo.hit_ratio");
  emit "memo.lookups" "count" (get "memo.lookups");
  emit "memo.bytes" "bytes" (get "memo.bytes");
  emit "exec.steals" "count" (get "exec.steals");
  List.iter
    (fun (k, unit) -> emit ("serve." ^ k) unit (get ("serve." ^ k)))
    [
      ("drain_s", "s");
      ("batches", "count");
      ("batch_size_mean", "count");
      ("open_p50_ms", "ms");
      ("open_p99_ms", "ms");
      ("queue_hwm", "count");
      ("rejected", "count");
      ("queue_wait_p50_ms", "ms");
      ("queue_wait_p99_ms", "ms");
      ("service_p50_ms", "ms");
      ("service_p99_ms", "ms");
    ];
  emit "driver.lag_p99_ms" "ms" (get "driver.lag_p99_ms");
  emit "trace.overhead" "ratio" (get "trace.overhead")

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let rate = ref 0.0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " solve-minor-free | substrate-scale | serve-mixed");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--serve-rate", Arg.Set_float rate, " open-loop arrival rate (queries/s) for serve-mixed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 [--serve-rate QPS]";
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench: --seed, --seconds and --trace 0|1 are required";
    exit 2
  end;
  tracing := !trace = 1;
  let seed = !seed and seconds = !seconds in
  let expected = load_expected ~workload:!workload ~seed ~seconds in
  (match !workload with
  | "solve-minor-free" -> solve_minor_free ~seed ~seconds ~expected
  | "substrate-scale" -> substrate_scale ~seed ~seconds ~expected
  | "serve-mixed" ->
      if !rate <= 0.0 then begin
        prerr_endline "bench: serve-mixed needs --serve-rate";
        exit 2
      end;
      serve_mixed ~seed ~seconds ~rate:!rate ~expected
  | w ->
      prerr_endline ("bench: unknown workload " ^ w);
      exit 2);
  if !tracing then emit_layers ();
  print_result ()
