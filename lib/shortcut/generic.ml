module Spanning = Graphlib.Spanning

type policy = Drop_all | Keep_kappa

let c_kappas_tried = Obs.Metrics.counter "generic.kappas_tried"
let c_prunes = Obs.Metrics.counter "generic.prunes"

let prune policy steiner parts kappa =
  Obs.Metrics.incr c_prunes;
  Obs.Span.with_ ~attrs:[ ("kappa", Obs.Sink.Int kappa) ] "generic.prune"
  @@ fun () ->
  let open Steiner in
  match policy with
  | Drop_all ->
      Array.map
        (List.filter (fun e -> Option.value (Hashtbl.find_opt steiner.load e) ~default:0 <= kappa))
        steiner.edges
  | Keep_kappa ->
      (* each overloaded edge keeps the kappa largest parts using it (larger
         parts lose more from splitting) *)
      let users = Hashtbl.create 256 in
      Array.iteri
        (fun i es ->
          List.iter
            (fun e ->
              if Option.value (Hashtbl.find_opt steiner.load e) ~default:0 > kappa then
                Hashtbl.replace users e
                  (i :: Option.value (Hashtbl.find_opt users e) ~default:[]))
            es)
        steiner.edges;
      let keep = Hashtbl.create 256 in
      Hashtbl.iter
        (fun e is ->
          let sorted =
            List.sort
              (fun a b -> Int.compare (Part.size parts b) (Part.size parts a))
              is
          in
          let kept = List.filteri (fun i _ -> i < kappa) sorted in
          let s = Hashtbl.create kappa in
          List.iter (fun i -> Hashtbl.replace s i ()) kept;
          Hashtbl.replace keep e s)
        users;
      Array.mapi
        (fun i es ->
          List.filter
            (fun e ->
              match Hashtbl.find_opt keep e with
              | None -> true
              | Some s -> Hashtbl.mem s i)
            es)
        steiner.edges

let with_threshold ?(policy = Keep_kappa) tree parts ~kappa =
  Obs.Span.with_ "generic.construct" @@ fun () ->
  let steiner = Steiner.compute tree parts in
  Shortcut.make tree parts (prune policy steiner parts kappa)

let default_kappas max_load =
  let rec loop k acc = if k >= max_load then List.rev (max_load :: acc) else loop (2 * k) (k :: acc) in
  if max_load <= 1 then [ 1 ] else loop 1 []

(* The kappa sweep evaluates (b, c, q) for every threshold without building a
   full Shortcut.t each time: edge survival is a rank test precomputed once,
   congestion comes from the load histogram in closed form, and blocks use a
   version-stamped array union-find. Only the winning kappa pays for
   Shortcut.make. *)
let construct_with_stats ?(policy = Keep_kappa) ?kappas tree parts =
  Obs.Span.with_ "generic.construct" @@ fun () ->
  let g = tree.Spanning.graph in
  let n = Graphlib.Graph.n g in
  let steiner = Steiner.compute tree parts in
  let max_load = Steiner.max_load steiner in
  let kappas = match kappas with Some ks -> ks | None -> default_kappas max_load in
  Obs.Metrics.add c_kappas_tried (List.length kappas);
  let height = Spanning.height tree in
  let load e = Option.value (Hashtbl.find_opt steiner.Steiner.load e) ~default:0 in
  (* Keep_kappa: part i survives on a shared edge iff it ranks among the
     kappa largest users (edges with load <= kappa never prune) *)
  let rank : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  (match policy with
  | Drop_all -> ()
  | Keep_kappa ->
      let users = Hashtbl.create 256 in
      Array.iteri
        (fun i es ->
          List.iter
            (fun e ->
              if load e > 1 then
                Hashtbl.replace users e
                  (i :: Option.value (Hashtbl.find_opt users e) ~default:[]))
            es)
        steiner.Steiner.edges;
      Hashtbl.iter
        (fun e is ->
          let sorted =
            List.sort (fun a b -> Int.compare (Part.size parts b) (Part.size parts a)) is
          in
          List.iteri (fun r i -> Hashtbl.replace rank (e, i) r) sorted)
        users);
  let kept kappa i e =
    let l = load e in
    l <= kappa
    ||
    match policy with
    | Drop_all -> false
    | Keep_kappa -> (
        match Hashtbl.find_opt rank (e, i) with Some r -> r < kappa | None -> false)
  in
  let loads = Hashtbl.fold (fun _ l acc -> l :: acc) steiner.Steiner.load [] in
  let congestion_at kappa =
    match policy with
    | Keep_kappa -> min kappa max_load
    | Drop_all ->
        List.fold_left (fun acc l -> if l <= kappa then max acc l else acc) 0 loads
  in
  let uf = Array.make (max 1 n) 0 in
  let uf_stamp = Array.make (max 1 n) 0 in
  let version = ref 0 in
  let rec find v =
    if uf_stamp.(v) <> !version then begin
      uf_stamp.(v) <- !version;
      uf.(v) <- v;
      v
    end
    else if uf.(v) = v then v
    else begin
      let r = find uf.(v) in
      uf.(v) <- r;
      r
    end
  in
  let roots = Hashtbl.create 64 in
  let blocks_at kappa i =
    incr version;
    List.iter
      (fun e ->
        if kept kappa i e then begin
          let u, v = Graphlib.Graph.edge g e in
          let ru = find u and rv = find v in
          if ru <> rv then uf.(ru) <- rv
        end)
      steiner.Steiner.edges.(i);
    Hashtbl.reset roots;
    Array.iter (fun v -> Hashtbl.replace roots (find v) ()) parts.Part.parts.(i);
    Hashtbl.length roots
  in
  let best = ref None in
  let curve = ref [] in
  Obs.Span.with_ "generic.sweep" (fun () ->
      List.iter
        (fun kappa ->
          let b = ref 0 in
          for i = 0 to Part.count parts - 1 do
            b := max !b (blocks_at kappa i)
          done;
          let q = (!b * height) + congestion_at kappa in
          curve := (kappa, q) :: !curve;
          match !best with
          | Some (_, bq) when bq <= q -> ()
          | _ -> best := Some (kappa, q))
        kappas);
  match !best with
  | Some (kappa, _) ->
      let assigned =
        Obs.Span.with_ ~attrs:[ ("kappa", Obs.Sink.Int kappa) ] "generic.prune"
          (fun () ->
            Array.mapi
              (fun i es -> List.filter (kept kappa i) es)
              steiner.Steiner.edges)
      in
      (Shortcut.make tree parts assigned, List.rev !curve)
  | None -> (Shortcut.empty tree parts, [])

let construct ?policy ?kappas tree parts =
  fst (construct_with_stats ?policy ?kappas tree parts)

type frontier_point = {
  kappa : int;
  b : int;
  c : int;
  q : int;
}

let frontier ?(policy = Keep_kappa) ?kappas tree parts =
  Obs.Span.with_ "generic.frontier" @@ fun () ->
  let steiner = Steiner.compute tree parts in
  let kappas =
    match kappas with Some ks -> ks | None -> default_kappas (max 1 (Steiner.max_load steiner))
  in
  List.map
    (fun kappa ->
      let sc = Shortcut.make tree parts (prune policy steiner parts kappa) in
      {
        kappa;
        b = Shortcut.block_parameter sc;
        c = Shortcut.congestion sc;
        q = Shortcut.quality sc;
      })
    kappas
