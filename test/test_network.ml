(* Tests for the CONGEST executor itself: the edge-indexed message
   fabric (duplicate-send / non-neighbor / bandwidth enforcement, the
   inbox order the flat fabric tables produce, [send_at] against [send]), the
   active-node worklist (quiescent nodes are skipped, mail reactivates
   them), and a property check of the distributed BFS against the
   centralized traversal. *)

open Graphlib
module N = Congest.Network

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- fabric violations ---------- *)

let test_bandwidth_violation () =
  let g = Generators.path 2 in
  let algo =
    {
      N.init = (fun _ _ -> false);
      step =
        (fun ctx _ ->
          if N.node ctx = 0 then N.send ctx 1 (Array.make 9 0);
          true);
      finished = (fun st -> st);
    }
  in
  Alcotest.check_raises "oversize payload"
    (Invalid_argument
       "Congest: message exceeds bandwidth (round 1, 0 -> 1, 9 words > 8)")
    (fun () -> ignore (N.run ~bandwidth:8 g algo))

let test_duplicate_send () =
  let g = Generators.star 4 in
  let algo =
    {
      N.init = (fun _ _ -> false);
      step =
        (fun ctx _ ->
          if N.node ctx = 0 then begin
            (* send_all covers the center->1 slot; the explicit resend must
               trip the occupancy check *)
            N.send_all ctx [| 1 |];
            N.send ctx 1 [| 2 |]
          end;
          true);
      finished = (fun st -> st);
    }
  in
  Alcotest.check_raises "slot already occupied"
    (Invalid_argument
       "Congest: two messages on one edge in one round (round 1, 0 -> 1, 1 \
        words)") (fun () -> ignore (N.run g algo))

let test_non_neighbor () =
  let g = Generators.path 4 in
  let algo =
    {
      N.init = (fun _ _ -> false);
      step =
        (fun ctx _ ->
          if N.node ctx = 0 then N.send ctx 3 [| 1 |];
          true);
      finished = (fun st -> st);
    }
  in
  Alcotest.check_raises "no such edge"
    (Invalid_argument "Congest: send to a non-neighbor (round 1, 0 -> 3)")
    (fun () -> ignore (N.run g algo))

(* ---------- activity tracking ---------- *)

(* path 0-1-2: node 0 counts three rounds then pings node 1; nodes 1 and 2
   start finished, so only mail may step them. active_steps counts exactly
   the steps taken: 3 for node 0, 1 for node 1, 0 for node 2. *)
let test_quiescent_nodes_skipped () =
  let g = Generators.path 3 in
  let algo =
    {
      N.init = (fun _ v -> if v = 0 then `Count 0 else `Idle);
      step =
        (fun ctx st ->
          match st with
          | `Count c ->
              if c + 1 = 3 then begin
                N.send ctx 1 [| 7 |];
                `Stop
              end
              else `Count (c + 1)
          | `Idle when N.inbox_size ctx > 0 -> `Got
          | st -> st);
      finished = (fun st -> match st with `Count _ -> false | _ -> true);
    }
  in
  let states, stats = N.run g algo in
  check "converged" true stats.N.converged;
  check "node 1 got the ping" true (states.(1) = `Got);
  check_int "rounds" 4 stats.N.rounds;
  check_int "active steps" 4 stats.N.active_steps

(* same shape, but the ping reactivates node 1, which then counts two more
   rounds on its own before finishing: the worklist must keep it awake
   after the mail that woke it is gone *)
let test_mail_reactivates () =
  let g = Generators.path 3 in
  let algo =
    {
      N.init = (fun _ v -> if v = 0 then `Count 0 else `Idle);
      step =
        (fun ctx st ->
          match st with
          | `Count c ->
              if c + 1 = 3 then begin
                N.send ctx 1 [| 7 |];
                `Stop
              end
              else `Count (c + 1)
          | `Idle when N.inbox_size ctx > 0 -> `Wake 0
          | `Wake k -> if k + 1 = 2 then `Stop else `Wake (k + 1)
          | st -> st);
      finished =
        (fun st -> match st with `Count _ | `Wake _ -> false | _ -> true);
    }
  in
  let states, stats = N.run g algo in
  check "converged" true stats.N.converged;
  check "node 1 ran to completion" true (states.(1) = `Stop);
  check_int "rounds" 6 stats.N.rounds;
  (* node 0: rounds 1-3; node 1: rounds 4-6 *)
  check_int "active steps" 6 stats.N.active_steps

let test_max_rounds_cap () =
  let g = Generators.cycle 5 in
  let algo =
    {
      N.init = (fun _ _ -> ());
      step = (fun _ () -> ());
      finished = (fun () -> false);
    }
  in
  let _, stats = N.run ~max_rounds:17 g algo in
  check "not converged" false stats.N.converged;
  check_int "capped" 17 stats.N.rounds

(* ---------- BFS vs the centralized traversal ---------- *)

let prop_bfs_matches_traversal =
  QCheck.Test.make ~name:"distributed BFS levels equal Traversal.bfs" ~count:60
    QCheck.(int_range 1 1000)
    (fun seed ->
      let n = 5 + (seed mod 60) in
      let g = Generators.erdos_renyi ~seed:(31 * seed) n 0.2 in
      QCheck.assume (Traversal.is_connected g);
      let root = seed mod n in
      let states, stats = Congest.Bfs.run g ~root in
      let dist = Traversal.bfs g root in
      stats.N.converged
      && Array.for_all2
           (fun st d -> st.Congest.Bfs.dist = d)
           states dist
      && Array.for_all
           (fun st ->
             st.Congest.Bfs.parent = -1
             || dist.(st.Congest.Bfs.parent) = st.Congest.Bfs.dist - 1)
           states)

(* ---------- the flat fabric tables ---------- *)

(* generator families plus a random graph whose edges are inserted in
   shuffled order with random orientation, so CSR order, sorted order and
   edge endpoint order all disagree *)
let family seed =
  let st = Random.State.make [| seed |] in
  match seed mod 6 with
  | 0 -> (Generators.grid (2 + (seed mod 7)) (2 + (seed mod 5))).Generators.graph
  | 1 -> (Generators.apollonian ~seed (4 + (seed mod 40))).Generators.graph
  | 2 -> fst (Generators.k_tree ~seed ~k:3 (5 + (seed mod 30)))
  | 3 -> Generators.series_parallel ~seed (5 + (seed mod 30))
  | 4 -> Generators.erdos_renyi ~seed (3 + (seed mod 40)) 0.2
  | _ ->
      let g = Generators.erdos_renyi ~seed (3 + (seed mod 40)) 0.3 in
      let es = Array.map (fun (u, v) -> if Random.State.bool st then (u, v) else (v, u)) (Graph.edges g) in
      for i = Array.length es - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = es.(i) in
        es.(i) <- es.(j);
        es.(j) <- t
      done;
      Graph.of_edges (Graph.n g) (Array.to_list es)

let every_dir_load_is tr g k =
  List.for_all (fun d -> Congest.Trace.dir_edge_load tr d = k) (List.init (2 * Graph.m g) Fun.id)

let prop_send_all_inbox_contract =
  QCheck.Test.make ~name:"send_all: each inbox lists every neighbor, descending" ~count:60
    QCheck.(int_range 1 1000)
    (fun seed ->
      let g = family seed in
      let n = Graph.n g in
      let got = Array.make n [] in
      let algo =
        {
          N.init = (fun _ _ -> false);
          step =
            (fun ctx _ ->
              if N.round ctx = 1 then N.send_all ctx [| N.node ctx |]
              else
                got.(N.node ctx) <-
                  List.init (N.inbox_size ctx) (fun i ->
                      (N.inbox_sender ctx i, N.inbox_words ctx i, N.inbox_word ctx i 0));
              true);
          finished = (fun st -> st);
        }
      in
      let tr = Congest.Trace.create g in
      let _, stats = N.run ~trace:tr g algo in
      stats.N.converged
      && stats.N.messages = 2 * Graph.m g
      && every_dir_load_is tr g 1
      && List.for_all
           (fun v ->
             let expected =
               List.sort (fun a b -> Int.compare b a) (Array.to_list (Graph.neighbors g v))
             in
             List.map (fun (w, _, _) -> w) got.(v) = expected
             && List.for_all (fun (w, len, word) -> len = 1 && word = w) got.(v))
           (List.init n Fun.id))

let test_send_at_outside_segment () =
  let g = Generators.path 4 in
  let attempt pos =
    {
      N.init = (fun _ _ -> false);
      step =
        (fun ctx _ ->
          if N.node ctx = 1 then N.send_at ctx pos [| 1 |];
          true);
      finished = (fun st -> st);
    }
  in
  (* node 0's only position, then one past the whole CSR *)
  Alcotest.check_raises "another node's position"
    (Invalid_argument
       "Congest: send_at outside the node's segment (round 1, node 1, position 0)")
    (fun () -> ignore (N.run g (attempt (Graph.adj_offset g 0))));
  Alcotest.check_raises "past the CSR"
    (Invalid_argument
       "Congest: send_at outside the node's segment (round 1, node 1, position 6)")
    (fun () -> ignore (N.run g (attempt (2 * Graph.m g))))

(* the same schedule through [send] (neighbor lookup) and [send_at] (CSR
   position): three rounds, each node sending along a round-dependent
   subset of its positions *)
let prop_send_at_equals_send =
  QCheck.Test.make ~name:"send_at and send give identical runs" ~count:40
    QCheck.(int_range 1 1000)
    (fun seed ->
      let g = family seed in
      let run by_pos =
        let inboxes = ref [] in
        let algo =
          {
            N.init = (fun _ _ -> 0);
            step =
              (fun ctx r ->
                let v = N.node ctx in
                for i = 0 to N.inbox_size ctx - 1 do
                  inboxes := (N.round ctx, v, N.inbox_sender ctx i, N.inbox_word ctx i 1) :: !inboxes
                done;
                if r < 3 then
                  for pos = Graph.adj_offset g v to Graph.adj_offset g (v + 1) - 1 do
                    if (pos + r + seed) mod 3 <> 0 then
                      if by_pos then N.send_at ctx pos [| v; r |]
                      else N.send ctx (Graph.adj_dst g pos) [| v; r |]
                  done;
                r + 1);
            finished = (fun r -> r >= 3);
          }
        in
        let tr = Congest.Trace.create g in
        let states, stats = N.run ~trace:tr g algo in
        (states, stats, List.init (2 * Graph.m g) (Congest.Trace.dir_edge_load tr), !inboxes)
      in
      run true = run false)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "network"
    [
      ( "fabric",
        [
          Alcotest.test_case "bandwidth violation raises" `Quick
            test_bandwidth_violation;
          Alcotest.test_case "duplicate send raises" `Quick test_duplicate_send;
          Alcotest.test_case "non-neighbor send raises" `Quick test_non_neighbor;
          Alcotest.test_case "send_at outside the segment raises" `Quick
            test_send_at_outside_segment;
        ]
        @ qsuite [ prop_send_all_inbox_contract; prop_send_at_equals_send ] );
      ( "activity",
        [
          Alcotest.test_case "quiescent nodes are skipped" `Quick
            test_quiescent_nodes_skipped;
          Alcotest.test_case "mail reactivates a finished node" `Quick
            test_mail_reactivates;
          Alcotest.test_case "max_rounds caps divergence" `Quick
            test_max_rounds_cap;
        ] );
      ("bfs", qsuite [ prop_bfs_matches_traversal ]);
    ]
