(* Tests for the benchmark's statistics and driver arithmetic. *)

module S = Perfbench_stats.Stats

let feq = Alcotest.(check (float 1e-9))
let ieq = Alcotest.(check int)
let beq = Alcotest.(check bool)
let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let nearest_rank () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  feq "p50 of 1..5" 3.0 (S.percentile xs 50.0);
  feq "p0 clamps to the minimum" 1.0 (S.percentile xs 0.0);
  feq "p100 is the maximum" 5.0 (S.percentile xs 100.0);
  feq "p90 of 1..100" 90.0 (S.percentile (one_to 100) 90.0);
  feq "p99 of 1..1000" 990.0 (S.percentile (one_to 1000) 99.0);
  feq "input left unsorted" 5.0 xs.(0);
  Alcotest.check_raises "empty input" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (S.percentile [||] 50.0))

let tail_rule () =
  ieq "p90 of 100 has 10 above" 10 (S.above ~n:100 90.0);
  beq "p90 of 100 qualifies" true (S.qualified ~n:100 90.0);
  beq "p90 of 99 does not" false (S.qualified ~n:99 90.0);
  beq "p99 of 1000 qualifies" true (S.qualified ~n:1000 99.0);
  beq "p99 of 999 does not" false (S.qualified ~n:999 99.0);
  let hq n = S.highest_qualified ~n [ 99.0; 50.0; 90.0 ] in
  Alcotest.(check (option (float 0.0))) "n=1000" (Some 99.0) (hq 1000);
  Alcotest.(check (option (float 0.0))) "n=150" (Some 90.0) (hq 150);
  Alcotest.(check (option (float 0.0))) "n=20" (Some 50.0) (hq 20);
  Alcotest.(check (option (float 0.0))) "n=12" None (hq 12)

let describe () =
  Alcotest.(check string) "qualified" "n=100, 10 above" (S.describe (one_to 100) 90.0);
  Alcotest.(check string)
    "unqualified names the highest that stands"
    "n=40, 0 above; below the 10-sample tail rule, highest qualified p50"
    (S.describe (one_to 40) 99.0)

let open_loop () =
  (* due at 100, sent late at 130, done at 180: latency counts from 100 *)
  Alcotest.(check int64) "latency from the schedule" 80L (S.since_due_ns ~due:100L 180L);
  Alcotest.(check int64) "lag" 30L (S.lag_ns ~scheduled:100L ~submitted:130L);
  Alcotest.(check int64) "on time is no lag" 0L (S.lag_ns ~scheduled:100L ~submitted:90L)

let poisson () =
  let offsets rate = S.poisson_offsets_ns ~rng:(Random.State.make [| 3 |]) ~rate 20_000 in
  let a = offsets 500.0 in
  beq "same seed, same schedule" true (a = offsets 500.0);
  beq "nondecreasing" true
    (Array.for_all Fun.id (Array.init (Array.length a - 1) (fun i -> a.(i) <= a.(i + 1))));
  let achieved = 20_000.0 /. (Int64.to_float a.(19_999) /. 1e9) in
  beq "mean rate within 3%" true (Float.abs (achieved -. 500.0) < 15.0)

let self_time () =
  feq "outer minus nested" 0.75 (S.self_time ~total:1.0 ~nested:0.25);
  feq "clock skew never goes negative" 0.0 (S.self_time ~total:1.0 ~nested:1.5)

let () =
  Alcotest.run "perfbench-stats"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick nearest_rank;
          Alcotest.test_case "tail rule" `Quick tail_rule;
          Alcotest.test_case "describe" `Quick describe;
          Alcotest.test_case "open-loop latency and lag" `Quick open_loop;
          Alcotest.test_case "poisson schedule" `Quick poisson;
          Alcotest.test_case "self time" `Quick self_time;
        ] );
    ]
