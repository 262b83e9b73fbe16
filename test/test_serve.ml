(* Tests for the batched query server (lib/serve): batched answers match
   the sequential oracle, admission-queue backpressure is deterministic,
   batching groups by graph, results are independent of the pool's job
   count, the Poisson schedule is a pure function of its seed, and the
   graph table (lib/memo) resolves each spec once. *)

module W = Serve.Workload
module Sv = Serve.Server
module L = Serve.Loadgen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a small fleet keeps the oracle sweep fast; these are distinct specs so
   grouping and the graph table are still exercised *)
let small_fleet = [| W.Grid (6, 6); W.Wheel 24; W.Torus (4, 4) |]

let queries_of fleet =
  Array.to_list fleet
  |> List.concat_map (fun spec ->
         Array.to_list W.all_kinds
         |> List.map (fun kind -> { W.spec; kind; qseed = 1 }))

let with_server ?config ~jobs f =
  Exec.Pool.with_pool ~jobs (fun pool -> f (Sv.create ?config pool))

(* ---------- oracle ---------- *)

let test_oracle_matches_sequential () =
  with_server ~jobs:2 (fun server ->
      let queries = queries_of small_fleet in
      List.iter (fun q -> ignore (Sv.submit server q)) queries;
      let completions = Sv.drain server in
      check_int "all queries served" (List.length queries)
        (List.length completions);
      List.iter
        (fun (c : Sv.completion) ->
          check
            (Printf.sprintf "batched %s/%s equals oracle"
               (W.spec_name c.query.W.spec)
               (W.kind_name c.query.W.kind))
            true
            (W.response_equal c.response (W.run_sequential c.query)))
        completions)

(* ---------- backpressure ---------- *)

let test_deterministic_rejection () =
  with_server
    ~config:{ Sv.queue_depth = 4; batch_max = 8 }
    ~jobs:1
    (fun server ->
      let q = { W.spec = W.Grid (6, 6); kind = W.Bfs; qseed = 0 } in
      let outcomes = List.init 7 (fun _ -> Sv.submit server q) in
      (* exactly the first queue_depth are admitted, with dense seqs *)
      check "first 4 accepted in order" true
        (List.filteri (fun i _ -> i < 4) outcomes
        = [ Sv.Accepted 0; Sv.Accepted 1; Sv.Accepted 2; Sv.Accepted 3 ]);
      check "overflow shed" true
        (List.filteri (fun i _ -> i >= 4) outcomes
        = [ Sv.Rejected; Sv.Rejected; Sv.Rejected ]);
      let s = Sv.stats server in
      check_int "stats.accepted" 4 s.Sv.accepted;
      check_int "stats.rejected" 3 s.Sv.rejected;
      check_int "stats.queue_hwm" 4 s.Sv.queue_hwm;
      let completions = Sv.drain server in
      check "drain serves the admitted queries in seq order" true
        (List.map (fun (c : Sv.completion) -> c.Sv.seq) completions
        = [ 0; 1; 2; 3 ]);
      (* a rejected query consumed no sequence number: the next accept is 4 *)
      check "seq dense across rejections" true (Sv.submit server q = Sv.Accepted 4))

(* ---------- batching ---------- *)

let test_batch_grouping () =
  with_server ~jobs:1 (fun server ->
      let a = { W.spec = W.Grid (6, 6); kind = W.Bfs; qseed = 0 }
      and b = { W.spec = W.Wheel 24; kind = W.Bfs; qseed = 0 } in
      List.iter
        (fun q -> ignore (Sv.submit server q))
        [ a; b; a; b; a ];
      let completions = Sv.drain server in
      check "completions in seq order" true
        (List.map (fun (c : Sv.completion) -> c.Sv.seq) completions
        = [ 0; 1; 2; 3; 4 ]);
      (* same-graph queries share a batch: the interleaved submissions
         collapse into one batch per spec, first-occurrence order *)
      check "grid queries share batch 0" true
        (List.for_all
           (fun (c : Sv.completion) ->
             c.query.W.spec <> a.W.spec || c.Sv.batch = 0)
           completions);
      check "wheel queries share batch 1" true
        (List.for_all
           (fun (c : Sv.completion) ->
             c.query.W.spec <> b.W.spec || c.Sv.batch = 1)
           completions);
      check_int "two batches total" 2 (Sv.stats server).Sv.batches)

let test_batch_max_split () =
  with_server
    ~config:{ Sv.queue_depth = 16; batch_max = 3 }
    ~jobs:1
    (fun server ->
      let q = { W.spec = W.Grid (6, 6); kind = W.Bfs; qseed = 0 } in
      for _ = 1 to 8 do
        ignore (Sv.submit server q)
      done;
      ignore (Sv.drain server);
      (* 8 same-graph queries at batch_max 3 -> batches of 3, 3, 2 *)
      check_int "chunked into ceil(8/3) batches" 3 (Sv.stats server).Sv.batches)

(* ---------- job-count independence ---------- *)

let strip (c : Sv.completion) = (c.Sv.seq, c.Sv.batch, c.query, c.response)

let test_jobs_equivalence () =
  let queries = queries_of small_fleet @ queries_of small_fleet in
  let serve jobs =
    with_server ~jobs (fun server ->
        List.iter (fun q -> ignore (Sv.submit server q)) queries;
        List.map strip (Sv.drain server))
  in
  let seq = serve 1 in
  check "jobs=3 completions match jobs=1 (minus latency)" true
    (serve 3 = seq)

(* ---------- schedule ---------- *)

let test_schedule_deterministic () =
  let mk seed = L.schedule ~rate:500.0 ~queries:64 ~seed ~fleet:W.default_fleet in
  check "same seed, same schedule" true (mk 11 = mk 11);
  check "different seed, different schedule" true (mk 11 <> mk 12);
  let s = mk 11 in
  check_int "schedule length" 64 (List.length s);
  let rec increasing = function
    | a :: (b :: _ as rest) ->
        a.L.at_ms < b.L.at_ms && increasing rest
    | _ -> true
  in
  check "arrival times strictly increasing" true (increasing s)

(* ---------- latency quantiles ---------- *)

let test_percentile () =
  let v = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..100" true (L.percentile v 50.0 = 50.0);
  check "p99 of 1..100" true (L.percentile v 99.0 = 99.0);
  check "p100 is the max" true (L.percentile v 100.0 = 100.0);
  check "empty is 0" true (L.percentile [||] 50.0 = 0.0);
  check "singleton" true (L.percentile [| 7.5 |] 99.0 = 7.5)

(* ---------- graph table ---------- *)

let test_warm_serving_hits_cache () =
  with_server ~jobs:1 (fun server ->
      let queries = queries_of small_fleet in
      let serve_once () =
        List.iter (fun q -> ignore (Sv.submit server q)) queries;
        Sv.drain server
      in
      let cold = serve_once () in
      let m0 = Memo.stats () in
      let warm = serve_once () in
      let m1 = Memo.stats () in
      check_int "warm pass misses nothing" 0 (m1.Memo.misses - m0.Memo.misses);
      check "warm responses equal cold responses" true
        (List.map (fun (c : Sv.completion) -> c.Sv.response) warm
        = List.map (fun (c : Sv.completion) -> c.Sv.response) cold))

let test_clear_and_stats () =
  Memo.clear ();
  check_int "clear empties the table" 0 (Memo.stats ()).Memo.entries;
  check_int "clear drops the bytes" 0 (Memo.stats ()).Memo.bytes;
  Array.iter
    (fun spec ->
      let m0 = Memo.stats () in
      let g = W.graph spec in
      let m1 = Memo.stats () in
      check_int "first lookup misses" 1 (m1.Memo.misses - m0.Memo.misses);
      check_int "first lookup does not hit" 0 (m1.Memo.hits - m0.Memo.hits);
      for _ = 1 to 3 do
        check "later lookups share the graph" true (W.graph spec == g)
      done;
      let m2 = Memo.stats () in
      check_int "later lookups hit" 3 (m2.Memo.hits - m1.Memo.hits);
      check_int "later lookups do not miss" 0 (m2.Memo.misses - m1.Memo.misses))
    small_fleet;
  let s = Memo.stats () in
  check_int "one entry per spec" (Array.length small_fleet) s.Memo.entries;
  check "bytes count the CSR payloads" true (s.Memo.bytes > 0);
  Memo.clear ();
  check_int "clear empties it again" 0 (Memo.stats ()).Memo.entries

(* domains racing on a cold table may both build a spec; every one of them
   must still see the same graph shape as a single-domain run *)
let test_pool_safety () =
  let fleet = Array.append small_fleet W.default_fleet in
  let f _ i =
    let g = W.graph fleet.(i mod Array.length fleet) in
    (Core.Graph.n g, Core.Graph.m g)
  in
  let cells = Array.init 40 Fun.id in
  Memo.clear ();
  let seq =
    Exec.Pool.with_pool ~jobs:1 (fun p -> Exec.Pool.map_cells p ~f cells)
  in
  Memo.clear ();
  let par =
    Exec.Pool.with_pool ~jobs:2 (fun p -> Exec.Pool.map_cells p ~f cells)
  in
  check "jobs=2 results identical to jobs=1" true (seq = par);
  (* whatever the race outcomes, every spec is in the table now *)
  let s0 = Memo.stats () in
  Array.iter (fun i -> ignore (f 0 i)) cells;
  let s1 = Memo.stats () in
  check_int "all post-pool lookups hit" (s0.Memo.hits + Array.length cells)
    s1.Memo.hits

let () =
  Alcotest.run "serve"
    [
      ( "server",
        [
          Alcotest.test_case "batched answers match the oracle" `Quick
            test_oracle_matches_sequential;
          Alcotest.test_case "full queue sheds deterministically" `Quick
            test_deterministic_rejection;
          Alcotest.test_case "same-graph queries batch together" `Quick
            test_batch_grouping;
          Alcotest.test_case "batch_max splits large groups" `Quick
            test_batch_max_split;
          Alcotest.test_case "completions independent of job count" `Quick
            test_jobs_equivalence;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "schedule is a pure function of the seed" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
        ] );
      ( "memo",
        [
          Alcotest.test_case "warm serving runs entirely from cache" `Quick
            test_warm_serving_hits_cache;
          Alcotest.test_case "clear empties the graph table" `Quick
            test_clear_and_stats;
        ] );
      ( "domains",
        [
          Alcotest.test_case "pool jobs=2 matches jobs=1" `Quick
            test_pool_safety;
        ] );
    ]
