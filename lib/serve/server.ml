(* See server.mli for the contract.  The admission queue is a plain FIFO:
   the server is single-producer by design (the CLI and the load generator
   drive it from one thread of control), so no lock is needed — the
   parallelism is inside the pool sweep that serves each batch. *)

let accepted_c = Obs.Metrics.counter "serve.accepted"
let rejected_c = Obs.Metrics.counter "serve.rejected"
let queries_c = Obs.Metrics.counter "serve.queries"
let batches_c = Obs.Metrics.counter "serve.batches"
let depth_g = Obs.Metrics.gauge "serve.queue_depth"
let latency_h = Obs.Metrics.histogram "serve.latency_ms"

type config = { queue_depth : int; batch_max : int }

let default_config = { queue_depth = 256; batch_max = 64 }

type pending_q = { seq : int; query : Workload.query; arrival_ns : int64 }

type t = {
  cfg : config;
  pl : Exec.Pool.t;
  q : pending_q Queue.t;
  mutable next_seq : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable batches : int;
  mutable queue_hwm : int;
}

type outcome = Accepted of int | Rejected

type completion = {
  seq : int;
  query : Workload.query;
  response : Workload.response;
  latency_ms : float;
  batch : int;
}

type stats = {
  accepted : int;
  rejected : int;
  completed : int;
  batches : int;
  queue_hwm : int;
}

let create ?(config = default_config) pool =
  if config.queue_depth < 1 then invalid_arg "Server.create: queue_depth < 1";
  if config.batch_max < 1 then invalid_arg "Server.create: batch_max < 1";
  {
    cfg = config;
    pl = pool;
    q = Queue.create ();
    next_seq = 0;
    accepted = 0;
    rejected = 0;
    completed = 0;
    batches = 0;
    queue_hwm = 0;
  }

let config (t : t) = t.cfg
let pool (t : t) = t.pl
let pending (t : t) = Queue.length t.q

let stats (t : t) =
  {
    accepted = t.accepted;
    rejected = t.rejected;
    completed = t.completed;
    batches = t.batches;
    queue_hwm = t.queue_hwm;
  }

let submit ?arrival_ns (t : t) query =
  if Queue.length t.q >= t.cfg.queue_depth then begin
    t.rejected <- t.rejected + 1;
    Obs.Metrics.incr rejected_c;
    Rejected
  end
  else begin
    let arrival_ns =
      match arrival_ns with Some a -> a | None -> Obs.Clock.now_ns ()
    in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.accepted <- t.accepted + 1;
    Obs.Metrics.incr accepted_c;
    Queue.add { seq; query; arrival_ns } t.q;
    let depth = Queue.length t.q in
    if depth > t.queue_hwm then t.queue_hwm <- depth;
    Obs.Metrics.set depth_g (float_of_int depth);
    Accepted seq
  end

(* group the pending queue by graph spec: first-occurrence order between
   groups, submission order within a group — deterministic in the
   submission sequence alone *)
let group_by_spec items =
  let groups = ref [] (* (spec, rev items) in rev first-occurrence order *) in
  List.iter
    (fun (p : pending_q) ->
      match List.assoc_opt p.query.Workload.spec !groups with
      | Some cell -> cell := p :: !cell
      | None -> groups := (p.query.Workload.spec, ref [ p ]) :: !groups)
    items;
  (* [!groups] is in reverse first-occurrence order; rev_map restores it *)
  List.rev_map (fun (spec, cell) -> (spec, List.rev !cell)) !groups

let rec chunks k = function
  | [] -> []
  | l ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (n - 1) (x :: acc) rest
      in
      let batch, rest = take k [] l in
      batch :: chunks k rest

let serve_batch (t : t) spec (items : pending_q list) =
  let batch = t.batches in
  t.batches <- t.batches + 1;
  Obs.Metrics.incr batches_c;
  let cells = Array.of_list items in
  let name = Workload.spec_name spec in
  Obs.Span.with_ "serve.batch"
    ~attrs:
      [
        ("graph", Obs.Sink.String name);
        ("size", Obs.Sink.Int (Array.length cells));
      ]
    (fun () ->
      (* one graph resolution per batch, shared by every query in it; after
         the first batch per spec this is a graph-table hit *)
      let g = Workload.graph spec in
      let responses =
        Exec.Pool.map_cells t.pl
          ~f:(fun _ (p : pending_q) ->
            Obs.Span.with_ "serve.query"
              ~attrs:
                [
                  ("graph", Obs.Sink.String name);
                  ("kind", Obs.Sink.String (Workload.kind_name p.query.kind));
                ]
              (fun () -> Workload.run g p.query))
          cells
      in
      let done_ns = Obs.Clock.now_ns () in
      Array.to_list
        (Array.mapi
           (fun i (p : pending_q) ->
             let latency_ms =
               Float.max 0.0
                 (Obs.Clock.ns_to_ms (Int64.sub done_ns p.arrival_ns))
             in
             Obs.Metrics.observe latency_h latency_ms;
             {
               seq = p.seq;
               query = p.query;
               response = responses.(i);
               latency_ms;
               batch;
             })
           cells))

let drain (t : t) =
  if Queue.is_empty t.q then []
  else begin
    let items = List.of_seq (Queue.to_seq t.q) in
    Queue.clear t.q;
    Obs.Metrics.set depth_g 0.0;
    let completions =
      group_by_spec items
      |> List.concat_map (fun (spec, group) ->
             chunks t.cfg.batch_max group
             |> List.concat_map (fun b -> serve_batch t spec b))
      |> List.sort (fun a b -> Int.compare a.seq b.seq)
    in
    let count = List.length completions in
    t.completed <- t.completed + count;
    Obs.Metrics.add queries_c count;
    if Obs.Sink.enabled () then
      List.iter
        (fun c ->
          Obs.Sink.emit ~type_:"serve_query"
            [
              ("seq", Obs.Sink.Int c.seq);
              ("graph", Obs.Sink.String (Workload.spec_name c.query.spec));
              ("kind", Obs.Sink.String (Workload.kind_name c.query.kind));
              ("qseed", Obs.Sink.Int c.query.qseed);
              ("batch", Obs.Sink.Int c.batch);
              ("latency_ms", Obs.Sink.Float c.latency_ms);
              ("rounds", Obs.Sink.Int c.response.rounds);
              ("value", Obs.Sink.Float c.response.value);
            ])
        completions;
    completions
  end
