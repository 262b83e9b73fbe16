(* Statistics and load-driver arithmetic for the benchmark.  Kept apart
   from the workloads so each rule has its own test (test_stats.ml). *)

(* The tail rule: a percentile is only trusted when at least this many
   samples lie above it, so one outlier cannot set it on its own. *)
let min_above = 10

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank: the smallest sample with at least p% of the samples at
   or below it; rank is 1-based, ceil(p/100 * n). *)
let rank ~n p =
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  max 1 (min n r)

let percentile samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted samples).(rank ~n p - 1)

let median samples = percentile samples 50.0

let above ~n p = n - rank ~n p
let qualified ~n p = above ~n p >= min_above

(* The highest of [candidates] that has [min_above] samples above it. *)
let highest_qualified ~n candidates =
  List.fold_left
    (fun best p -> if qualified ~n p then Some p else best)
    None
    (List.sort Float.compare candidates)

(* One timing line: the value with the sample count beside it, and a
   warning when the percentile has too few samples above it to stand. *)
let describe samples p =
  let n = Array.length samples in
  let note =
    if qualified ~n p then ""
    else
      Printf.sprintf "; below the %d-sample tail rule, highest qualified %s"
        min_above
        (match highest_qualified ~n [ 50.0; 90.0; 99.0; 99.9 ] with
        | Some q -> Printf.sprintf "p%g" q
        | None -> "none")
  in
  Printf.sprintf "n=%d, %d above%s" n (above ~n p) note

(* Open-loop accounting: a request's times run from when it was due, not
   from when the generator got round to sending it, so a stall also
   charges the requests queued behind it. *)
let since_due_ns ~due t = Int64.sub t due

(* How late the generator submitted against its schedule (never negative:
   submitting early is not possible, it sleeps until the due time). *)
let lag_ns ~scheduled ~submitted = Int64.max 0L (Int64.sub submitted scheduled)

(* Poisson arrivals: exponential gaps at [rate] per second, as offsets in
   nanoseconds from the start of the phase, in nondecreasing order. *)
let poisson_offsets_ns ~rng ~rate count =
  let t = ref 0.0 in
  Array.init count (fun _ ->
      let u = 1.0 -. Random.State.float rng 1.0 in
      t := !t +. (-.log u /. rate);
      Int64.of_float (!t *. 1e9))

(* Self time of a timed call that contains nested timed calls: the
   call's own span minus the part of it the nested spans cover. *)
let self_time ~total ~nested = Float.max 0.0 (total -. nested)
