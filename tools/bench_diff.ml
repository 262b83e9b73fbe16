(* Regression gate over the bench ledger (BENCH_LEDGER.jsonl).

     bench_diff BENCH_LEDGER.jsonl             compare latest vs baseline
     bench_diff --baseline REV LEDGER          pin the baseline by rev
     bench_diff --bless LEDGER                 mark the latest entry blessed
     bench_diff --trim LEDGER                  drop stale unblessed entries

   The latest ledger entry is compared against the most recent *earlier*
   entry with "blessed": true (migrated historical entries are never
   blessed, so they never gate anything).  Each metric has a relative
   threshold plus an absolute epsilon — a regression is

     current > baseline * (1 + rel) + eps

   so tiny absolute wobbles on sub-millisecond experiments don't trip the
   relative bound.  Time metrics get thresholds sized to the measured
   clean-run noise of this shared container: wall and CPU both wobble up
   to ~9% run to run on the memory-bound S1 even after calibration
   normalization (memory-bandwidth contention moves DRAM-bound work
   without moving the ALU calibration spin), so time bounds sit at
   12-15%.  Allocation and congestion metrics are near-deterministic and
   keep tight 5% bounds — they are the low-noise regression signal.  The
   injected-slowdown self-test (BENCH_SYNTH_SLOWDOWN) is caught by the
   deterministic side: its burn allocates like real work, so the injected
   minor words trip the 5% allocation bound on a dozen experiments even
   when time noise would absorb the slowdown itself.  Exit 1 with one
   named-metric line per regression; exit 2 on unusable input (no ledger,
   incomparable modes).

   An intentional regression is blessed into the new baseline:

     make bench-record && ./_build/default/tools/bench_diff.exe --bless \
       BENCH_LEDGER.jsonl

   (wrapped as `make bench-bless`; see DESIGN.md section 13).

   --trim keeps the ledger from growing without bound: it rewrites the
   file keeping only the most recent blessed baseline plus the last two
   entries (original order, no duplicates) — everything the gate can ever
   consult.  `make bench-record` runs it after appending, so the checked-in
   ledger stays ~3 lines.

   When both the baseline and the current entry carry a "serve" section
   (the SV1 open-loop serving benchmark), its SLOs are gated too: qps and
   the graph table's cache_hit_rate may not drop, reject_rate may not
   climb, and the p50/p99 latency quantiles get wide 50% bounds — tail
   latency of an open-loop run on a shared container is the noisiest
   metric in the ledger, so the bound only catches order-of-magnitude
   serving regressions, not drift.
   Latency quantiles are wall-clock measurements and get the same
   calibration normalization as the other time metrics.

   When both entries carry a "scale" section (the S1 million-node run),
   its per-family build/BFS/MST phase walls and cpu are gated at the
   15% time bound with calibration normalization, and the family's
   minor_words / max_rss_kb at the usual tight allocation bounds.

   When both entries carry an "asynch" section (the AS1 latency-model
   sweep), its per-cell rounds / simulated time / message counts are pure
   functions of the seeds and get tight 5% bounds — they move only when
   the executor's semantics move — while the sweep's wall_ms is a
   wall-clock measurement gated at the 15% time bound with calibration
   normalization. *)

let j_member = Obs.Sink.member
let j_str name j = Option.bind (j_member name j) Obs.Sink.string_value
let j_float name j = Option.bind (j_member name j) Obs.Sink.float_value
let j_int name j = Option.bind (j_member name j) Obs.Sink.int_value

let j_bool name j =
  match j_member name j with Some (Obs.Sink.Bool b) -> Some b | _ -> None

let read_ledger file =
  let ic =
    try open_in file
    with Sys_error e ->
      Printf.eprintf "bench_diff: %s\n" e;
      exit 2
  in
  let entries = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         match Obs.Sink.parse line with
         | Ok j -> entries := (line, j) :: !entries
         | Error e ->
             Printf.eprintf "bench_diff: %s:%d: parse error: %s\n" file !lineno
               e;
             exit 2
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* ---------------- bless ---------------- *)

let bless file =
  match List.rev (read_ledger file) with
  | [] ->
      Printf.eprintf "bench_diff: %s: empty ledger, nothing to bless\n" file;
      exit 2
  | (_, last) :: earlier ->
      let last' =
        match last with
        | Obs.Sink.Obj fields ->
            let fields =
              if List.mem_assoc "blessed" fields then
                List.map
                  (fun (k, v) ->
                    if k = "blessed" then (k, Obs.Sink.Bool true) else (k, v))
                  fields
              else fields @ [ ("blessed", Obs.Sink.Bool true) ]
            in
            Obs.Sink.Obj fields
        | other -> other
      in
      let oc = open_out file in
      List.iter
        (fun (line, _) ->
          output_string oc line;
          output_char oc '\n')
        (List.rev earlier);
      output_string oc (Obs.Sink.to_string last');
      output_char oc '\n';
      close_out oc;
      Printf.printf "bench_diff: blessed entry rev %s (%s) in %s\n"
        (Option.value ~default:"?" (j_str "rev" last))
        (Option.value ~default:"?" (j_str "date" last))
        file

(* ---------------- trim ---------------- *)

(* keep the most recent blessed entry plus the last two entries, in their
   original order; everything else is history the gate never reads *)
let trim file =
  let entries = read_ledger file in
  let n = List.length entries in
  let last_blessed =
    List.fold_left
      (fun (i, found) (_, j) ->
        ( i + 1,
          if (match j with
              | Obs.Sink.Obj _ -> j_bool "blessed" j = Some true
              | _ -> false)
          then Some i
          else found ))
      (0, None) entries
    |> snd
  in
  let keep i = i >= n - 2 || last_blessed = Some i in
  let kept =
    List.filteri (fun i _ -> keep i) entries |> List.map (fun (line, _) -> line)
  in
  if List.length kept = n then
    Printf.printf "bench_diff: %s: %d entries, nothing to trim\n" file n
  else begin
    let oc = open_out file in
    List.iter
      (fun line ->
        output_string oc line;
        output_char oc '\n')
      kept;
    close_out oc;
    Printf.printf "bench_diff: trimmed %s: %d -> %d entries\n" file n
      (List.length kept)
  end

(* ---------------- compare ---------------- *)

type verdict = { mutable checked : int; mutable regressions : string list }

(* current > baseline * (1 + rel) + eps *)
let check v ~metric ~rel ~eps ~baseline ~current =
  v.checked <- v.checked + 1;
  if current > (baseline *. (1.0 +. rel)) +. eps then begin
    let pct =
      if baseline > 0.0 then
        Printf.sprintf "+%.1f%%" (100.0 *. ((current /. baseline) -. 1.0))
      else "from zero"
    in
    v.regressions <-
      Printf.sprintf
        "REGRESSION %s: baseline %.1f -> current %.1f (%s, threshold +%.0f%% + %.0f)"
        metric baseline current pct (100.0 *. rel) eps
      :: v.regressions
  end

let experiments_by_id j =
  match j_member "experiments" j with
  | Some (Obs.Sink.List l) ->
      List.filter_map
        (fun e -> Option.map (fun id -> (id, e)) (j_str "id" e))
        l
  | _ -> []

let probes_by_name j =
  match j_member "alloc_probes" j with
  | Some (Obs.Sink.List l) ->
      List.filter_map
        (fun p -> Option.map (fun name -> (name, p)) (j_str "name" p))
        l
  | _ -> []

let num name j =
  match j_float name j with
  | Some f -> Some f
  | None -> Option.map float_of_int (j_int name j)

(* uniform machine drift (frequency scaling, co-tenant load) moves every
   time metric of a run together, including the fixed-work calibration
   spin recorded in calib_cpu_ms — so time metrics are compared after
   dividing the current value by the calibration ratio.  A genuine
   slowdown changes the experiments without changing the spin, and
   survives the normalization. *)
let speed_factor ~baseline ~current =
  match (num "calib_cpu_ms" baseline, num "calib_cpu_ms" current) with
  | Some b, Some c when b > 0.0 && c > 0.0 -> c /. b
  | _ -> 1.0

let compare_entries v ~speed ~baseline ~current =
  let check_time v ~metric ~rel ~eps ~baseline ~current =
    check v ~metric ~rel ~eps ~baseline ~current:(current /. speed)
  in
  (match (num "total_ms" baseline, num "total_ms" current) with
  | Some b, Some c ->
      check_time v ~metric:"total_ms" ~rel:0.12 ~eps:250.0 ~baseline:b
        ~current:c
  | _ -> ());
  (match (num "total_cpu_ms" baseline, num "total_cpu_ms" current) with
  | Some b, Some c ->
      check_time v ~metric:"total_cpu_ms" ~rel:0.12 ~eps:250.0 ~baseline:b
        ~current:c
  | _ -> ());
  let base_exps = experiments_by_id baseline in
  List.iter
    (fun (id, cur) ->
      match List.assoc_opt id base_exps with
      | None -> () (* new experiment: nothing to compare against *)
      | Some base ->
          let pair name = (num name base, num name cur) in
          let chk ?(time = false) metric ~rel ~eps (b, c) =
            match (b, c) with
            | Some b, Some c ->
                (if time then check_time else check)
                  v ~metric:(id ^ "." ^ metric) ~rel ~eps ~baseline:b
                  ~current:c
            | _ -> ()
          in
          chk ~time:true "wall_ms" ~rel:0.15 ~eps:250.0 (pair "wall_ms");
          chk ~time:true "cpu_ms" ~rel:0.15 ~eps:250.0 (pair "cpu_ms");
          chk "minor_words" ~rel:0.05 ~eps:1e6 (pair "minor_words");
          chk "max_rss_kb" ~rel:0.25 ~eps:51200.0 (pair "max_rss_kb");
          (match (j_member "congestion" base, j_member "congestion" cur) with
          | Some bc, Some cc ->
              let cpair name = (num name bc, num name cc) in
              chk "congestion.rounds" ~rel:0.05 ~eps:16.0 (cpair "rounds");
              chk "congestion.messages" ~rel:0.05 ~eps:512.0 (cpair "messages");
              chk "congestion.max_edge_load" ~rel:0.05 ~eps:2.0
                (cpair "max_edge_load")
          | _ -> ()))
    (experiments_by_id current);
  let base_probes = probes_by_name baseline in
  List.iter
    (fun (name, cur) ->
      match List.assoc_opt name base_probes with
      | None -> ()
      | Some base -> (
          match (num "words_per_round" base, num "words_per_round" cur) with
          | Some b, Some c ->
              check v
                ~metric:(Printf.sprintf "alloc[%s].words_per_round" name)
                ~rel:0.05 ~eps:100.0 ~baseline:b ~current:c
          | _ -> ()))
    (probes_by_name current);
  (* scale section: per-family S1 build/BFS/MST phases, gated only when
     both entries actually ran S1 (the member is Null otherwise).  Phase
     walls are memory-bound and get the wide 15% time bound; allocation
     is deterministic and keeps the tight 5% bound. *)
  (match (j_member "scale" baseline, j_member "scale" current) with
  | Some (Obs.Sink.Obj _ as bs), Some (Obs.Sink.Obj _ as cs) ->
      let families j =
        match j_member "families" j with
        | Some (Obs.Sink.List l) ->
            List.filter_map
              (fun f -> Option.map (fun name -> (name, f)) (j_str "family" f))
              l
        | _ -> []
      in
      let base_fams = families bs in
      List.iter
        (fun (name, cur) ->
          match List.assoc_opt name base_fams with
          | None -> ()
          | Some base ->
              let pair metric = (num metric base, num metric cur) in
              let chk ?(time = false) metric ~rel ~eps (b, c) =
                match (b, c) with
                | Some b, Some c ->
                    (if time then check_time else check)
                      v
                      ~metric:(Printf.sprintf "scale[%s].%s" name metric)
                      ~rel ~eps ~baseline:b ~current:c
                | _ -> ()
              in
              chk ~time:true "build_ms" ~rel:0.15 ~eps:250.0 (pair "build_ms");
              chk ~time:true "bfs_ms" ~rel:0.15 ~eps:250.0 (pair "bfs_ms");
              chk ~time:true "mst_ms" ~rel:0.15 ~eps:250.0 (pair "mst_ms");
              chk ~time:true "cpu_ms" ~rel:0.15 ~eps:250.0 (pair "cpu_ms");
              chk "minor_words" ~rel:0.05 ~eps:1e6 (pair "minor_words");
              chk "max_rss_kb" ~rel:0.25 ~eps:51200.0 (pair "max_rss_kb"))
        (families cs)
  | _ -> ());
  (* asynch section: per-cell AS1 results, gated only when both entries
     actually ran AS1 (the member is Null otherwise).  Everything in a
     row is deterministic — simulated time included — so the bounds are
     tight; only wall_ms is a measurement. *)
  (match (j_member "asynch" baseline, j_member "asynch" current) with
  | Some (Obs.Sink.Obj _ as bs), Some (Obs.Sink.Obj _ as cs) ->
      let rows j =
        match j_member "rows" j with
        | Some (Obs.Sink.List l) ->
            List.filter_map
              (fun r ->
                match (j_str "label" r, j_str "model" r) with
                | Some lbl, Some m -> Some (lbl ^ "@" ^ m, r)
                | _ -> None)
              l
        | _ -> []
      in
      let base_rows = rows bs in
      List.iter
        (fun (key, cur) ->
          match List.assoc_opt key base_rows with
          | None -> ()
          | Some base ->
              let pair metric = (num metric base, num metric cur) in
              let chk metric ~rel ~eps (b, c) =
                match (b, c) with
                | Some b, Some c ->
                    check v
                      ~metric:(Printf.sprintf "asynch[%s].%s" key metric)
                      ~rel ~eps ~baseline:b ~current:c
                | _ -> ()
              in
              chk "rounds" ~rel:0.05 ~eps:2.0 (pair "rounds");
              chk "sim_time" ~rel:0.05 ~eps:2.0 (pair "sim_time");
              chk "data_msgs" ~rel:0.05 ~eps:64.0 (pair "data_msgs");
              chk "ctrl_msgs" ~rel:0.05 ~eps:256.0 (pair "ctrl_msgs");
              chk "events" ~rel:0.05 ~eps:256.0 (pair "events");
              chk "queue_hwm" ~rel:0.05 ~eps:64.0 (pair "queue_hwm"))
        (rows cs);
      (match (num "wall_ms" bs, num "wall_ms" cs) with
      | Some b, Some c ->
          check_time v ~metric:"asynch.wall_ms" ~rel:0.15 ~eps:250.0
            ~baseline:b ~current:c
      | _ -> ())
  | _ -> ());
  (* serve SLOs: only when both entries actually ran SV1 (the member is
     Null otherwise) *)
  match (j_member "serve" baseline, j_member "serve" current) with
  | Some (Obs.Sink.Obj _ as bs), Some (Obs.Sink.Obj _ as cs) ->
      let pair name = (num name bs, num name cs) in
      let drop metric ~abs_floor ~rel (b, c) =
        (* throughput/hit-rate regressions are drops: fail when the current
           value falls below baseline * (1 - rel) - abs_floor *)
        match (b, c) with
        | Some b, Some c ->
            v.checked <- v.checked + 1;
            if c < (b *. (1.0 -. rel)) -. abs_floor then
              v.regressions <-
                Printf.sprintf
                  "REGRESSION serve.%s: baseline %.2f -> current %.2f \
                   (threshold -%.0f%% - %.2f)"
                  metric b c (100.0 *. rel) abs_floor
                :: v.regressions
        | _ -> ()
      in
      let chk_time metric ~rel ~eps (b, c) =
        match (b, c) with
        | Some b, Some c ->
            check v ~metric:("serve." ^ metric) ~rel ~eps ~baseline:b
              ~current:(c /. speed)
        | _ -> ()
      in
      drop "qps" ~rel:0.15 ~abs_floor:25.0 (pair "qps");
      drop "cache_hit_rate" ~rel:0.0 ~abs_floor:0.10 (pair "cache_hit_rate");
      chk_time "p50_ms" ~rel:0.50 ~eps:10.0 (pair "p50_ms");
      chk_time "p99_ms" ~rel:0.50 ~eps:25.0 (pair "p99_ms");
      (match pair "reject_rate" with
      | Some b, Some c ->
          v.checked <- v.checked + 1;
          if c > b +. 0.05 then
            v.regressions <-
              Printf.sprintf
                "REGRESSION serve.reject_rate: baseline %.3f -> current %.3f \
                 (threshold +0.05 absolute)"
                b c
              :: v.regressions
      | _ -> ())
  | _ -> ()

let mode_key j =
  match j_member "mode" j with
  | Some m ->
      Printf.sprintf "only=%s" (Option.value ~default:"(all)" (j_str "only" m))
  | None -> "(unknown)"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse bless trim baseline_rev file = function
    | "--bless" :: rest -> parse true trim baseline_rev file rest
    | "--trim" :: rest -> parse bless true baseline_rev file rest
    | "--baseline" :: rev :: rest -> parse bless trim (Some rev) file rest
    | f :: rest -> parse bless trim baseline_rev (Some f) rest
    | [] -> (bless, trim, baseline_rev, file)
  in
  let do_bless, do_trim, baseline_rev, file = parse false false None None args in
  let file =
    match file with
    | Some f -> f
    | None ->
        prerr_endline
          "usage: bench_diff [--bless] [--trim] [--baseline REV] LEDGER";
        exit 2
  in
  if do_trim then trim file
  else if do_bless then bless file
  else begin
    let entries = List.map snd (read_ledger file) in
    match List.rev entries with
    | [] ->
        Printf.eprintf "bench_diff: %s: empty ledger\n" file;
        exit 2
    | current :: earlier -> (
        let is_baseline e =
          match baseline_rev with
          | Some rev -> j_str "rev" e = Some rev
          | None -> j_bool "blessed" e = Some true
        in
        match List.find_opt is_baseline earlier with
        | None ->
            (* a fresh ledger has nothing blessed yet: record a baseline and
               bless it rather than failing every tree *)
            Printf.printf
              "bench_diff: %s: no %s among earlier entries; nothing to \
               compare\n"
              file
              (match baseline_rev with
              | Some rev -> Printf.sprintf "entry with rev %s" rev
              | None -> "blessed baseline");
            exit 0
        | Some baseline ->
            if mode_key baseline <> mode_key current then begin
              Printf.eprintf
                "bench_diff: incomparable entries: baseline ran %s, current \
                 ran %s\n"
                (mode_key baseline) (mode_key current);
              exit 2
            end;
            let v = { checked = 0; regressions = [] } in
            let speed = speed_factor ~baseline ~current in
            compare_entries v ~speed ~baseline ~current;
            let id e =
              Printf.sprintf "rev %s (%s)"
                (Option.value ~default:"?" (j_str "rev" e))
                (Option.value ~default:"?" (j_str "date" e))
            in
            if speed <> 1.0 then
              Printf.printf
                "bench_diff: machine speed factor %.3f (current calibration \
                 / baseline); time metrics normalized\n"
                speed;
            if v.regressions = [] then begin
              Printf.printf
                "bench_diff: OK — %s vs baseline %s: %d metrics within \
                 thresholds\n"
                (id current) (id baseline) v.checked;
              exit 0
            end
            else begin
              List.iter print_endline (List.rev v.regressions);
              Printf.printf
                "bench_diff: FAIL — %s vs baseline %s: %d of %d metrics \
                 regressed (bless intentional changes with `make \
                 bench-bless`)\n"
                (id current) (id baseline)
                (List.length v.regressions)
                v.checked;
              exit 1
            end)
  end
