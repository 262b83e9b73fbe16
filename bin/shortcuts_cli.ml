(* Command-line front end: generate the paper's graph families, inspect
   them, and run the shortcut / MST / min-cut pipelines on edge-list files.

     shortcuts-cli gen grid --width 24 --height 24 -o grid.txt
     shortcuts-cli info grid.txt
     shortcuts-cli quality grid.txt --parts 12 --trace out.jsonl
     shortcuts-cli mst grid.txt --algo shortcut
     shortcuts-cli mincut grid.txt --trees 8
     shortcuts-cli report out.jsonl
*)

open Cmdliner

(* --trace FILE on the pipeline commands: install a JSONL sink and turn span
   collection on for the duration of the run, closing with a final metrics
   snapshot.  [report] below renders the resulting file. *)
let with_obs trace f =
  match trace with
  | None -> f ()
  | Some path ->
      let s = Obs.Sink.open_file path in
      Obs.Sink.install s;
      Obs.Span.set_enabled true;
      Obs.Gcstat.set_enabled true;
      Obs.Span.reset ();
      Obs.Metrics.reset ();
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.emit ();
          let n = Obs.Sink.event_count s in
          Obs.Sink.close s;
          Printf.printf "wrote %d events to %s\n" n path)
        f

(* --edge-list reads a headerless whitespace-separated edge list (the format
   SNAP-style corpora ship in) instead of the repo's "n m" header format;
   such files carry no weights, so the pipeline falls back to random ones *)
let read_graph ?(edge_list = false) file =
  let g, w =
    if edge_list then (Core.Io.read_edge_list file, None)
    else Core.Io.read_file file
  in
  if not (Core.Traversal.is_connected g) then
    failwith "input graph is not connected";
  (g, w)

let weights_of g = function
  | Some w -> w
  | None -> Core.Graph.random_weights g

(* ---------- gen ---------- *)

let gen_families =
  [
    "grid";
    "apollonian";
    "series-parallel";
    "ktree";
    "torus";
    "wheel";
    "lower-bound";
    "lk";
    "rmat";
  ]

let gen family width height size k edge_factor seed pieces weighted out =
  let g =
    match family with
    | "grid" -> (Core.Generators.grid width height).Core.Generators.graph
    | "apollonian" -> (Core.Generators.apollonian ~seed size).Core.Generators.graph
    | "series-parallel" -> Core.Generators.series_parallel ~seed size
    | "ktree" -> fst (Core.Generators.k_tree ~seed ~k size)
    | "torus" -> Core.Generators.torus_grid width height
    | "wheel" -> Core.Generators.cycle_with_apex size
    | "lower-bound" -> fst (Core.Generators.lower_bound k)
    | "lk" ->
        let ps =
          List.init pieces (fun i ->
              (Core.Almost_embeddable.make ~seed:(seed + i) ~width:20 ~height:10
                 ~handles:1 ~vortices:1 ~vortex_depth:2 ~vortex_nodes:4 ~apices:1
                 ~apex_fanout:5)
                .Core.Almost_embeddable.graph)
        in
        (Core.Clique_sum.compose ~seed ~k:3 ~shape:Core.Clique_sum.Random_tree ps)
          .Core.Clique_sum.graph
    | "rmat" ->
        (* size rounds up to the next power of two: RMAT vertex ids are
           drawn from a 2^scale square *)
        let rec lg s = if 1 lsl s >= size then s else lg (s + 1) in
        Core.Generators.rmat ~seed ~scale:(lg 1) ~edge_factor ()
    | f -> failwith ("unknown family: " ^ f ^ " (try: " ^ String.concat ", " gen_families ^ ")")
  in
  let weights = if weighted then Some (Core.Graph.random_weights g) else None in
  (match out with
  | Some path ->
      Core.Io.write_file path ?weights g;
      Printf.printf "wrote %s: n=%d m=%d\n" path (Core.Graph.n g) (Core.Graph.m g)
  | None -> print_string (Core.Io.to_string ?weights g));
  0

(* ---------- info ---------- *)

let show_info edge_list file =
  let g, w = read_graph ~edge_list file in
  Printf.printf "n = %d\nm = %d\nweighted = %b\n" (Core.Graph.n g) (Core.Graph.m g)
    (w <> None);
  Printf.printf "diameter (double sweep) >= %d\n" (Core.Distance.diameter_double_sweep g);
  if Core.Graph.n g <= 2000 then
    Printf.printf "planar = %b\n" (Core.Planarity.is_planar g);
  if Core.Graph.n g <= 1000 then begin
    Printf.printf "treewidth <= %d (heuristic)\n" (Core.Treewidth.upper_bound g);
    Printf.printf "K4-minor-free = %b\n" (not (Core.Minor.has_k4_minor g))
  end;
  0

(* ---------- quality ---------- *)

(* --trials N runs N independent repetitions (seed, seed+1, ...) and --jobs
   spreads them over a domain pool; each trial is a pool cell that returns
   its data, printed here in trial order, so output does not depend on the
   job count (and a single trial prints exactly what it always did) *)

let quality edge_list file nparts seed trials jobs trace_out =
  with_obs trace_out @@ fun () ->
  let g, _ = read_graph ~edge_list file in
  let tree = Core.Spanning.bfs_tree g 0 in
  let results =
    Exec.Pool.with_pool ~jobs @@ fun pool ->
    Exec.Pool.map_list pool
      ~f:(fun s ->
        let parts = Core.Part.voronoi ~seed:s g ~count:nparts in
        let sc = Core.Generic.construct tree parts in
        let trace = Core.Trace.create g in
        let rounds = Core.Aggregate.rounds_for_parts sc ~seed:s ~trace in
        let empty = Core.Shortcut.empty tree parts in
        let rounds0 = Core.Aggregate.rounds_for_parts empty ~seed:s in
        let label =
          if trials = 1 then file else Printf.sprintf "%s seed=%d" file s
        in
        let row =
          Core.Quality.measure ~label
            ~observed_congestion:(Core.Trace.max_edge_load trace) sc
        in
        (label, row, rounds, rounds0, trace))
      (List.init trials (fun i -> seed + i))
  in
  print_endline (Core.Quality.header ());
  List.iter
    (fun (_, row, _, _, _) -> print_endline (Core.Quality.to_string row))
    results;
  List.iter
    (fun (label, _, rounds, rounds0, trace) ->
      if trials = 1 then begin
        Printf.printf "aggregation: %d rounds with shortcuts, %d without\n" rounds
          rounds0;
        Printf.printf "trace: %s\n"
          (Core.Trace.summary_to_string (Core.Trace.summary trace))
      end
      else
        Printf.printf "%s: %d rounds with shortcuts, %d without; trace %s\n" label
          rounds rounds0
          (Core.Trace.summary_to_string (Core.Trace.summary trace));
      Core.Trace.emit ~label trace)
    results;
  0

(* ---------- mst ---------- *)

(* sequential MST over the integer kernels (Spanning.mst): no CONGEST
   simulation, no rounds — the fast path for big --edge-list inputs where
   the answer matters more than the distributed round count.  Both
   strategies return the identical unique (weight, edge id) forest. *)
let mst_local strategy g w =
  let w =
    match w with
    | Some w -> w
    | None -> Core.Graph.random_weights ~state:(Random.State.make [| 42 |]) g
  in
  let t0 = Unix.gettimeofday () in
  let edges = Core.Spanning.mst ~strategy g w in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Printf.printf "algorithm = local-%s\nedges = %d\nweight = %.6f\n"
    (match strategy with Core.Spanning.Kruskal -> "kruskal" | Core.Spanning.Boruvka -> "boruvka")
    (List.length edges)
    (Core.Spanning.total_weight w edges);
  Printf.printf "wall_ms = %.1f\n" ms;
  0

let mst edge_list file algo trials jobs trace_out =
  with_obs trace_out @@ fun () ->
  let g, w = read_graph ~edge_list file in
  match algo with
  | "local-kruskal" -> mst_local Core.Spanning.Kruskal g w
  | "local-boruvka" -> mst_local Core.Spanning.Boruvka g w
  | _ ->
  let results =
    Exec.Pool.with_pool ~jobs @@ fun pool ->
    Exec.Pool.map_list pool
      ~f:(fun i ->
        (* trial 0 reproduces the default weights exactly; later trials
           reseed so repetitions are independent *)
        let w =
          match w with
          | Some w -> w
          | None ->
              Core.Graph.random_weights ~state:(Random.State.make [| 42 + i |]) g
        in
        let trace = Core.Trace.create g in
        let report =
          match algo with
          | "shortcut" ->
              Core.Mst.boruvka ~trace ~constructor:Core.Mst.shortcut_constructor g w
          | "flooding" ->
              Core.Mst.boruvka ~trace ~constructor:Core.Mst.no_shortcut_constructor g
                w
          | "pipelined" -> Core.Mst.pipelined g w
          | "full" ->
              Core.Mst.boruvka_full ~trace
                ~constructor:Core.Mst.shortcut_constructor g w
          | a -> failwith ("unknown algorithm: " ^ a)
        in
        let warning =
          match Core.Mst.check g w report with Ok () -> None | Error e -> Some e
        in
        (i, warning, report, trace))
      (List.init trials (fun i -> i))
  in
  List.iter
    (fun (i, warning, (report : Core.Mst.report), trace) ->
      if trials > 1 then Printf.printf "-- trial %d --\n" i;
      (match warning with
      | None -> ()
      | Some e -> Printf.printf "WARNING: %s\n" e);
      Printf.printf "algorithm = %s\nphases = %d\nrounds = %d\nweight = %.6f\n" algo
        report.Core.Mst.phases report.Core.Mst.rounds report.Core.Mst.mst_weight;
      if algo <> "pipelined" then begin
        Printf.printf "trace: %s\n"
          (Core.Trace.summary_to_string (Core.Trace.summary trace));
        Core.Trace.emit ~label:(file ^ " mst/" ^ algo) trace
      end)
    results;
  0

(* ---------- mincut ---------- *)

let mincut edge_list file trees seed trials jobs trace_out =
  with_obs trace_out @@ fun () ->
  let g, w = read_graph ~edge_list file in
  let w = weights_of g w in
  let results =
    Exec.Pool.with_pool ~jobs @@ fun pool ->
    Exec.Pool.map_list pool
      ~f:(fun s ->
        ( s,
          Core.Mincut.approx ~trees ~seed:s
            ~constructor:Core.Mst.shortcut_constructor g w ))
      (List.init trials (fun i -> seed + i))
  in
  List.iter
    (fun (s, (r : Core.Mincut.report)) ->
      if trials > 1 then Printf.printf "-- trial seed=%d --\n" s;
      Printf.printf "estimate = %.6f\nrounds = %d\ntrees = %d\n"
        r.Core.Mincut.estimate r.Core.Mincut.rounds r.Core.Mincut.trees)
    results;
  if Core.Graph.n g <= 400 then
    Printf.printf "exact (stoer-wagner) = %.6f\n" (Core.Mincut.stoer_wagner g w);
  0

(* ---------- serve-bench ---------- *)

let print_phase (s : Serve.Loadgen.phase_stats) =
  Printf.printf
    "-- phase %s --\nsubmitted = %d  accepted = %d  rejected = %d  completed \
     = %d\n"
    s.Serve.Loadgen.phase s.submitted s.accepted s.rejected s.completed;
  Printf.printf "wall = %.1f ms  throughput = %.1f qps\n" s.wall_ms s.qps;
  Printf.printf
    "latency ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n" s.mean_ms
    s.p50_ms s.p95_ms s.p99_ms s.max_ms;
  Printf.printf
    "cache: %d hits / %d misses (%.0f%% hit rate)  queue hwm = %d  steals = \
     %d\n"
    s.cache_hits s.cache_misses
    (100.0 *. s.cache_hit_rate)
    s.queue_hwm s.steals;
  List.iter
    (fun (k, q, r, v) ->
      Printf.printf "  %-8s %4d queries  %6d rounds  value %.3f\n" k q r v)
    s.per_kind

let serve_bench rate queries depth batch seed jobs trace_out =
  if rate <= 0.0 then failwith "--rate must be positive";
  with_obs trace_out @@ fun () ->
  let events =
    Serve.Loadgen.schedule ~rate ~queries ~seed
      ~fleet:Serve.Workload.default_fleet
  in
  Printf.printf "serve-bench: %d queries at %.0f qps (seed %d, depth %d, \
                 batch %d, jobs %d)\n"
    queries rate seed depth batch jobs;
  Exec.Pool.with_pool ~jobs @@ fun pool ->
  let server =
    Serve.Server.create
      ~config:{ Serve.Server.queue_depth = depth; batch_max = batch }
      pool
  in
  (* same schedule twice: the cold phase pays every graph generation, the
     warm phase measures steady-state serving from the graph table *)
  let cold, _ = Serve.Loadgen.run_phase ~name:"cold" ~server ~events in
  print_phase cold;
  let warm, _ = Serve.Loadgen.run_phase ~name:"warm" ~server ~events in
  print_phase warm;
  0

(* ---------- report ---------- *)

(* aggregate span rows of a JSONL file by path; value = calls, total, self *)
type span_row = {
  name : string;
  depth : int;
  mutable calls : int;
  mutable total_ms : float;
  mutable self_ms : float;
  mutable self_minor_words : float; (* 0 unless the trace ran with Gcstat *)
}

let report file chrome_out flame_out =
  let module S = Obs.Sink in
  let spans : (string, span_row) Hashtbl.t = Hashtbl.create 64 in
  let counters : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let by_type : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let serve_summaries = ref [] (* serve_summary events, file order *) in
  let serve_latencies = ref [] (* serve_query latency_ms values *) in
  let bad = ref 0 and lines = ref 0 in
  let str field j = Option.bind (S.member field j) S.string_value in
  let num field j = Option.bind (S.member field j) S.float_value in
  let handle_span j =
    match (str "path" j, str "name" j) with
    | Some path, Some name ->
        let depth =
          match Option.bind (S.member "depth" j) S.int_value with
          | Some d -> d
          | None -> 0
        in
        let row =
          match Hashtbl.find_opt spans path with
          | Some r -> r
          | None ->
              let r =
                {
                  name;
                  depth;
                  calls = 0;
                  total_ms = 0.0;
                  self_ms = 0.0;
                  self_minor_words = 0.0;
                }
              in
              Hashtbl.add spans path r;
              r
        in
        row.calls <- row.calls + 1;
        row.total_ms <- row.total_ms +. Option.value (num "dur_ms" j) ~default:0.0;
        row.self_ms <- row.self_ms +. Option.value (num "self_ms" j) ~default:0.0;
        (match S.member "gc" j with
        | Some gc ->
            row.self_minor_words <-
              row.self_minor_words
              +. Option.value (num "self_minor_words" gc) ~default:0.0
        | None -> ())
    | _ -> incr bad
  in
  let handle_metrics j =
    match S.member "counters" j with
    | Some (S.Obj fields) ->
        List.iter
          (fun (k, v) ->
            match S.int_value v with
            | Some x ->
                Hashtbl.replace counters k
                  (x + Option.value (Hashtbl.find_opt counters k) ~default:0)
            | None -> ())
          fields
    | _ -> ()
  in
  let ic = open_in file in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         incr lines;
         match S.parse line with
         | Error _ -> incr bad
         | Ok j -> (
             let t = Option.value (str "type" j) ~default:"?" in
             Hashtbl.replace by_type t
               (1 + Option.value (Hashtbl.find_opt by_type t) ~default:0);
             match t with
             | "span" -> handle_span j
             | "metrics" -> handle_metrics j
             | "serve_summary" -> serve_summaries := j :: !serve_summaries
             | "serve_query" -> (
                 match num "latency_ms" j with
                 | Some l -> serve_latencies := l :: !serve_latencies
                 | None -> incr bad)
             | _ -> ())
       end
     done
   with End_of_file -> ());
  close_in ic;
  let census =
    Hashtbl.fold (fun t n acc -> (t, n) :: acc) by_type []
    |> List.sort compare
    |> List.map (fun (t, n) -> Printf.sprintf "%s=%d" t n)
    |> String.concat " "
  in
  Printf.printf "%s: %d events (%s)%s\n" file !lines census
    (if !bad > 0 then Printf.sprintf ", %d malformed" !bad else "");
  let rows =
    Hashtbl.fold (fun path r acc -> (path, r) :: acc) spans []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  if rows <> [] then begin
    Printf.printf "\n%-48s %8s %11s %11s\n" "span" "calls" "total ms" "self ms";
    List.iter
      (fun (_, r) ->
        Printf.printf "%-48s %8d %11.2f %11.2f\n"
          (String.make (2 * r.depth) ' ' ^ r.name)
          r.calls r.total_ms r.self_ms)
      rows
  end;
  let c k = Option.value (Hashtbl.find_opt counters k) ~default:0 in
  (* query-serving activity, if the trace came from serve-bench / SV1 *)
  if !serve_summaries <> [] || !serve_latencies <> [] then begin
    let summaries = List.rev !serve_summaries in
    if summaries <> [] then begin
      Printf.printf "\n%-10s %10s %10s %10s %10s %10s %8s\n" "serve phase"
        "completed" "qps" "p50 ms" "p95 ms" "p99 ms" "shed";
      List.iter
        (fun s ->
          let f field = Option.value (num field s) ~default:0.0 in
          let i field =
            Option.value
              (Option.bind (S.member field s) S.int_value)
              ~default:0
          in
          Printf.printf "%-10s %10d %10.1f %10.2f %10.2f %10.2f %8d\n"
            (Option.value (str "phase" s) ~default:"?")
            (i "completed") (f "qps") (f "p50_ms") (f "p95_ms") (f "p99_ms")
            (i "rejected"))
        summaries;
      let hwm =
        List.fold_left
          (fun acc s ->
            max acc
              (Option.value
                 (Option.bind (S.member "queue_hwm" s) S.int_value)
                 ~default:0))
          0 summaries
      in
      Printf.printf "queue depth high-water mark = %d\n" hwm
    end;
    (* overall quantiles recomputed from the raw per-query events, across
       every phase in the file — the summaries only carry per-phase ones *)
    let lat = Array.of_list !serve_latencies in
    if Array.length lat > 0 then begin
      let p = Serve.Loadgen.percentile lat in
      Printf.printf
        "all %d served queries: p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max \
         %.2f ms\n"
        (Array.length lat) (p 50.0) (p 95.0) (p 99.0)
        (Array.fold_left Float.max 0.0 lat)
    end;
    Printf.printf
      "server counters: %d accepted, %d rejected, %d batches, %d pool steals\n"
      (c "serve.accepted") (c "serve.rejected") (c "serve.batches")
      (c "exec.pool.steals")
  end;
  (* fault-injection activity, if any faulty Network.run was recorded *)
  let fault_runs = c "faults.runs" in
  if fault_runs > 0 then
    Printf.printf
      "\nfault injection: %d faulty runs — dropped %d, delayed %d, retried %d, \
       undelivered %d, crashed %d\n"
      fault_runs (c "faults.dropped") (c "faults.delayed") (c "faults.retried")
      (c "faults.undelivered") (c "faults.crashed");
  let top =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
    |> List.filter (fun (_, v) -> v <> 0)
    |> List.sort (fun (ka, va) (kb, vb) -> compare (-va, ka) (-vb, kb))
  in
  if top <> [] then begin
    Printf.printf "\n%-40s %12s\n" "counter" "value";
    let show = List.filteri (fun i _ -> i < 12) top in
    List.iter (fun (k, v) -> Printf.printf "%-40s %12d\n" k v) show;
    if List.length top > List.length show then
      Printf.printf "  ... %d more\n" (List.length top - List.length show)
  end;
  (* top allocating spans, when the trace ran with the gc probes on *)
  let alloc_rows =
    Hashtbl.fold (fun path r acc -> (path, r) :: acc) spans []
    |> List.filter (fun (_, r) -> r.self_minor_words > 0.0)
    |> List.sort (fun (pa, a) (pb, b) ->
           compare (-.a.self_minor_words, pa) (-.b.self_minor_words, pb))
  in
  if alloc_rows <> [] then begin
    Printf.printf "\n%-48s %14s\n" "top allocating span paths (self)"
      "minor words";
    List.iteri
      (fun i (path, r) ->
        if i < 10 then Printf.printf "%-48s %14.0f\n" path r.self_minor_words)
      alloc_rows
  end;
  if chrome_out <> None || flame_out <> None then begin
    let events = Obs.Export.read_jsonl file in
    (match chrome_out with
    | Some out ->
        let doc = Obs.Export.chrome events in
        let oc = open_out out in
        output_string oc (S.to_string doc);
        output_char oc '\n';
        close_out oc;
        let n =
          match S.member "traceEvents" doc with
          | Some (S.List evs) -> List.length evs
          | _ -> 0
        in
        Printf.printf
          "\nwrote %d trace events to %s (chrome://tracing, ui.perfetto.dev)\n"
          n out
    | None -> ());
    match flame_out with
    | Some out ->
        let oc = open_out out in
        output_string oc (Obs.Export.folded events);
        close_out oc;
        Printf.printf "wrote folded stacks to %s (flamegraph.pl, speedscope)\n"
          out
    | None -> ()
  end;
  0

(* ---------- cmdliner wiring ---------- *)

let file_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let trials_arg =
  Arg.(
    value & opt int 1
    & info [ "trials" ]
        ~doc:"Independent repetitions (seeded seed, seed+1, ...), reported in \
              trial order.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ]
        ~doc:"Worker domains to spread trials over; output is identical to \
              --jobs 1.")

let edge_list_arg =
  Arg.(
    value & flag
    & info [ "edge-list" ]
        ~doc:"Read FILE as a raw whitespace-separated edge list ('#'/'%' \
              comments, no header) instead of the native 'n m' format.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL observability trace (spans, metrics, trace \
              summaries) to $(docv); inspect it with $(b,report).")

let gen_cmd =
  let family = Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY") in
  let width = Arg.(value & opt int 16 & info [ "width" ] ~doc:"Grid/torus width.") in
  let height = Arg.(value & opt int 16 & info [ "height" ] ~doc:"Grid/torus height.") in
  let size = Arg.(value & opt int 256 & info [ "n"; "size" ] ~doc:"Vertex count.") in
  let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"k (ktree width / lower-bound p).") in
  let edge_factor =
    Arg.(value & opt int 8 & info [ "edge-factor" ] ~doc:"RMAT edges per vertex.")
  in
  let pieces = Arg.(value & opt int 6 & info [ "pieces" ] ~doc:"L_k piece count.") in
  let weighted = Arg.(value & flag & info [ "weighted" ] ~doc:"Attach random weights.") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a graph family instance as an edge list.")
    Term.(const gen $ family $ width $ height $ size $ k $ edge_factor $ seed_arg $ pieces $ weighted $ out)

let info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Basic structural facts about a graph file.")
    Term.(const show_info $ edge_list_arg $ file_arg)

let quality_cmd =
  let nparts = Arg.(value & opt int 8 & info [ "parts" ] ~doc:"Voronoi part count.") in
  Cmd.v
    (Cmd.info "quality" ~doc:"Construct shortcuts and report b, c, q + rounds.")
    Term.(const quality $ edge_list_arg $ file_arg $ nparts $ seed_arg $ trials_arg $ jobs_arg $ trace_arg)

let mst_cmd =
  let algo =
    Arg.(
      value
      & opt (enum [ ("shortcut", "shortcut"); ("flooding", "flooding"); ("pipelined", "pipelined"); ("full", "full"); ("local-kruskal", "local-kruskal"); ("local-boruvka", "local-boruvka") ]) "shortcut"
      & info [ "algo" ]
          ~doc:
            "MST algorithm.  The CONGEST simulations (shortcut, flooding, \
             pipelined, full) report distributed round counts; \
             local-kruskal / local-boruvka run the sequential integer \
             kernels directly — same forest, no simulation.")
  in
  Cmd.v
    (Cmd.info "mst" ~doc:"Run a distributed MST and report simulated rounds.")
    Term.(const mst $ edge_list_arg $ file_arg $ algo $ trials_arg $ jobs_arg $ trace_arg)

let mincut_cmd =
  let trees = Arg.(value & opt int 8 & info [ "trees" ] ~doc:"Sampled trees.") in
  Cmd.v
    (Cmd.info "mincut" ~doc:"Approximate min-cut; exact verification on small inputs.")
    Term.(const mincut $ edge_list_arg $ file_arg $ trees $ seed_arg $ trials_arg $ jobs_arg $ trace_arg)

let serve_bench_cmd =
  let rate =
    Arg.(
      value & opt float 400.0
      & info [ "rate" ] ~doc:"Offered load in queries per second.")
  in
  let queries =
    Arg.(
      value & opt int 160
      & info [ "queries" ] ~doc:"Queries per phase (cold, then warm).")
  in
  let depth =
    Arg.(
      value & opt int 256
      & info [ "depth" ]
          ~doc:"Admission queue depth; arrivals beyond it are shed and \
                counted as rejected.")
  in
  let batch =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~doc:"Maximum queries per served batch.")
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:
         "Open-loop load benchmark of the batched query server: a \
          deterministic Poisson schedule over the built-in graph fleet, run \
          cold then warm, reporting throughput, latency quantiles \
          (p50/p95/p99 against scheduled arrival times), graph-table hit \
          rates and shed load.  Inspect a --trace file with $(b,report).")
    Term.(
      const serve_bench $ rate $ queries $ depth $ batch
      $ seed_arg $ jobs_arg $ trace_arg)

let report_cmd =
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"OUT"
          ~doc:
            "Also export the span stream as a Chrome/Perfetto trace-event \
             JSON file (open in chrome://tracing or ui.perfetto.dev).")
  in
  let flame_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"OUT"
          ~doc:
            "Also export folded stacks (span path ; self µs per line) for \
             flamegraph.pl or speedscope.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Summarize a JSONL trace (from --trace or bench --jsonl): span \
             tree with call counts and self/total time, top counters, top \
             allocating spans, and optional Chrome-trace / flamegraph \
             exports.")
    Term.(const report $ file_arg $ chrome_arg $ flame_arg)

let () =
  let doc = "low-congestion shortcuts on excluded-minor networks" in
  let main = Cmd.group (Cmd.info "shortcuts-cli" ~doc) [ gen_cmd; info_cmd; quality_cmd; mst_cmd; mincut_cmd; serve_bench_cmd; report_cmd ] in
  exit (Cmd.eval' main)
