module Graph = Graphlib.Graph
module Part = Shortcuts.Part
module Sc = Shortcuts.Shortcut

type result = {
  stats : Network.stats;
  mins : (float * int) option array;
}

(* the one (key, data) order every part-wise minimum is taken in:
   lexicographic, key first.  Keys are never NaN, so the float [<] and
   [=] are total here; the annotations keep both comparisons monomorphic *)
let value_lt (k1 : float) (d1 : int) (k2 : float) (d2 : int) =
  k1 < k2 || (k1 = k2 && d1 < d2)

(* counting-sort offsets: [off.(x) .. off.(x + 1) - 1] is the range of
   bucket [x] among the [len] items [key 0 .. key (len - 1)] in [0, k);
   negative keys are skipped *)
let offsets k len key =
  let off = Array.make (k + 1) 0 in
  for i = 0 to len - 1 do
    let x = key i in
    if x >= 0 then off.(x + 1) <- off.(x + 1) + 1
  done;
  for x = 1 to k do
    off.(x) <- off.(x) + off.(x - 1)
  done;
  off

(* stable bucketing: [order.(off.(x)) .. order.(off.(x + 1) - 1)] are the
   items with key [x], ascending *)
let bucket k len key =
  let off = offsets k len key in
  let order = Array.make off.(k) 0 in
  let fill = Array.sub off 0 k in
  for i = 0 to len - 1 do
    let x = key i in
    if x >= 0 then begin
      order.(fill.(x)) <- i;
      fill.(x) <- fill.(x) + 1
    end
  done;
  (off, order)

(* State layout, all flat arrays built once per call (DESIGN.md §7):
   - entries: one per allowed direction (CSR position [pos] of node [v],
     part [p]), grouped by slot; [ent_pos]/[ent_slot] and a [queued] flag;
   - slots: one per (node, part) the node carries — its own part plus every
     part with an allowed direction out of it — sorted by part within the
     node for the receive-side binary search, with unboxed
     [best_key]/[best_data]/[best_set];
   - rings: per CSR position, a FIFO of pending entry ids whose capacity is
     the number of entries on that position (an entry is queued at most
     once at a time);
   - [pending.(v)]: queued entries out of [v], so [finished] is O(1). *)
let minimum ?max_rounds ?trace ?faults sc ~values =
  let tree = sc.Sc.tree in
  let g = tree.Graphlib.Spanning.graph in
  let n = Graph.n g in
  Obs.Span.with_
    ~attrs:[ ("n", Obs.Sink.Int n) ]
    "congest.aggregate.minimum"
  @@ fun () ->
  let part_of = sc.Sc.parts.Part.part_of in
  let assigned = sc.Sc.assigned in
  let npos = 2 * Graph.m g in
  let nparts = Array.fold_left (fun acc p -> max acc (p + 1)) (Array.length assigned) part_of in
  let mem_start, members = bucket nparts n (fun v -> part_of.(v)) in
  (* CSR position of each directed edge: [2e] leaves [Graph.edge_u g e] *)
  let pos_of_dir = Array.make npos 0 in
  for v = 0 to n - 1 do
    for pos = Graph.adj_offset g v to Graph.adj_offset g (v + 1) - 1 do
      let e = Graph.adj_eid g pos in
      pos_of_dir.((2 * e) + if Graph.edge_u g e = v then 0 else 1) <- pos
    done
  done;
  (* raw (node, pos, part) triples, emitted part by part so one stamp per
     position dedups them; [pos = -1] marks a member's own-part slot *)
  let cap =
    n + npos + Array.fold_left (fun acc a -> acc + (2 * Array.length a)) 0 assigned
  in
  let r_node = Array.make cap 0 and r_pos = Array.make cap 0 in
  let r_part = Array.make cap 0 in
  let r_n = ref 0 in
  let stamp = Array.make npos (-1) in
  let emit v pos p =
    if pos < 0 || stamp.(pos) <> p then begin
      if pos >= 0 then stamp.(pos) <- p;
      r_node.(!r_n) <- v;
      r_pos.(!r_n) <- pos;
      r_part.(!r_n) <- p;
      incr r_n
    end
  in
  for p = 0 to nparts - 1 do
    if p < Array.length assigned then
      Array.iter
        (fun e ->
          emit (Graph.edge_u g e) pos_of_dir.(2 * e) p;
          emit (Graph.edge_v g e) pos_of_dir.((2 * e) + 1) p)
        assigned.(p);
    for i = mem_start.(p) to mem_start.(p + 1) - 1 do
      let v = members.(i) in
      emit v (-1) p;
      for pos = Graph.adj_offset g v to Graph.adj_offset g (v + 1) - 1 do
        if part_of.(Graph.adj_dst g pos) = p then emit v pos p
      done
    done
  done;
  (* stable, so parts stay ascending within a node *)
  let r_n = !r_n in
  let node_start, order = bucket n r_n (fun i -> r_node.(i)) in
  (* slots are the runs of equal part within a node; entries drop the
     own-part markers *)
  let slot_part = Array.make r_n 0 and slot_first = Array.make (r_n + 1) 0 in
  let node_slot = Array.make (n + 1) 0 and own_slot = Array.make n (-1) in
  let ent_pos = Array.make r_n 0 and ent_slot = Array.make r_n 0 in
  let ns = ref 0 and ne = ref 0 in
  for v = 0 to n - 1 do
    node_slot.(v) <- !ns;
    for j = node_start.(v) to node_start.(v + 1) - 1 do
      let i = order.(j) in
      let p = r_part.(i) in
      if j = node_start.(v) || slot_part.(!ns - 1) <> p then begin
        slot_part.(!ns) <- p;
        slot_first.(!ns) <- !ne;
        incr ns
      end;
      if r_pos.(i) < 0 then own_slot.(v) <- !ns - 1
      else begin
        ent_pos.(!ne) <- r_pos.(i);
        ent_slot.(!ne) <- !ns - 1;
        incr ne
      end
    done
  done;
  node_slot.(n) <- !ns;
  slot_first.(!ns) <- !ne;
  let nslots = !ns and nent = !ne in
  let ring_off = offsets npos nent (fun k -> ent_pos.(k)) in
  let ring = Array.make nent 0 in
  let ring_head = Array.make npos 0 and ring_len = Array.make npos 0 in
  let queued = Bytes.make nent '\000' in
  let pending = Array.make n 0 in
  let best_key = Array.make nslots 0.0 and best_data = Array.make nslots 0 in
  let best_set = Bytes.make nslots '\000' in
  (* queue every allowed direction of slot [s] (owned by [v]) not already
     queued; callers have just lowered the slot's best *)
  let enqueue_slot v s =
    for k = slot_first.(s) to slot_first.(s + 1) - 1 do
      if Bytes.unsafe_get queued k = '\000' then begin
        Bytes.unsafe_set queued k '\001';
        let pos = ent_pos.(k) in
        let off = ring_off.(pos) and len = ring_len.(pos) in
        let cap = ring_off.(pos + 1) - off in
        let at = ring_head.(pos) + len in
        ring.(off + if at >= cap then at - cap else at) <- k;
        ring_len.(pos) <- len + 1;
        pending.(v) <- pending.(v) + 1
      end
    done
  in
  (* [@inline] keeps [key] unboxed: the non-flambda compiler boxes a float
     passed to a closure it does not inline *)
  let[@inline] improve v s key data =
    if Bytes.get best_set s = '\000' || value_lt key data best_key.(s) best_data.(s)
    then begin
      best_key.(s) <- key;
      best_data.(s) <- data;
      Bytes.set best_set s '\001';
      enqueue_slot v s
    end
  in
  let find_slot v p =
    let lo = ref node_slot.(v) and hi = ref (node_slot.(v + 1) - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if slot_part.(mid) < p then lo := mid + 1 else hi := mid
    done;
    if !lo > !hi || slot_part.(!lo) <> p then
      invalid_arg "Aggregate: message for a part the node does not carry";
    !lo
  in
  let send_buf = [| 0; 0; 0; 0 |] in
  let algo =
    {
      Network.init =
        (fun _ v ->
          let s = own_slot.(v) in
          (match values.(v) with
          | Some (key, data) when s >= 0 -> improve v s key data
          | _ -> ());
          v);
      step =
        (fun ctx v ->
          (* receive *)
          for i = 0 to Network.inbox_size ctx - 1 do
            if Network.inbox_words ctx i <> 4 then
              invalid_arg "Aggregate: malformed payload";
            let s = find_slot v (Network.inbox_word ctx i 0) in
            let hi = Network.inbox_word ctx i 1 in
            let lo = Network.inbox_word ctx i 2 in
            let data = Network.inbox_word ctx i 3 in
            let key =
              Int64.float_of_bits
                (Int64.logor
                   (Int64.shift_left (Int64.of_int hi) 32)
                   (Int64.of_int (lo land 0xFFFFFFFF)))
            in
            improve v s key data
          done;
          (* send: one pending part per neighbor, in CSR adjacency order *)
          if pending.(v) > 0 then
            for pos = Graph.adj_offset g v to Graph.adj_offset g (v + 1) - 1 do
              let len = ring_len.(pos) in
              if len > 0 then begin
                let off = ring_off.(pos) and h = ring_head.(pos) in
                let k = ring.(off + h) in
                ring_head.(pos) <- (if h + 1 = ring_off.(pos + 1) - off then 0 else h + 1);
                ring_len.(pos) <- len - 1;
                Bytes.unsafe_set queued k '\000';
                pending.(v) <- pending.(v) - 1;
                let s = ent_slot.(k) in
                let bits = Int64.bits_of_float best_key.(s) in
                send_buf.(0) <- slot_part.(s);
                send_buf.(1) <- Int64.to_int (Int64.shift_right_logical bits 32);
                send_buf.(2) <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
                send_buf.(3) <- best_data.(s);
                Network.send_at ctx pos send_buf
              end
            done;
          v);
      finished = (fun v -> pending.(v) = 0);
    }
  in
  let _, stats = Network.run ?max_rounds ?trace ?faults g algo in
  let mins =
    Array.init n (fun v ->
        let s = own_slot.(v) in
        if s >= 0 && Bytes.get best_set s <> '\000' then
          Some (best_key.(s), best_data.(s))
        else None)
  in
  { stats; mins }

let true_minimum parts ~values =
  let n = Array.length values in
  let nparts = Part.count parts in
  let best = Array.make nparts None in
  Array.iteri
    (fun v value ->
      let p = parts.Part.part_of.(v) in
      if p >= 0 then
        match (value, best.(p)) with
        | Some (kx, dx), Some (ky, dy) when not (value_lt kx dx ky dy) -> ()
        | Some x, _ -> best.(p) <- Some x
        | None, _ -> ())
    values;
  Array.init n (fun v ->
      let p = parts.Part.part_of.(v) in
      if p < 0 then None else best.(p))

let verify sc ~values result =
  let expected = true_minimum sc.Sc.parts ~values in
  let ok = ref true in
  Array.iteri
    (fun v e ->
      match (e, result.mins.(v)) with
      | Some (kx, dx), Some (ky, dy)
        when not (value_lt kx dx ky dy || value_lt ky dy kx dx) -> ()
      | None, _ -> ()
      | _ -> ok := false)
    expected;
  !ok

let rounds_for_parts ?max_rounds ?trace sc ~seed =
  let st = Faults.Rng.algo seed in
  let g = sc.Sc.tree.Graphlib.Spanning.graph in
  let values =
    Array.init (Graph.n g) (fun v ->
        if sc.Sc.parts.Part.part_of.(v) >= 0 then
          Some (Random.State.float st 1.0, v)
        else None)
  in
  let r = minimum ?max_rounds ?trace sc ~values in
  r.stats.Network.rounds

(* ---- non-idempotent aggregates: SUM via convergecast/broadcast ---- *)

type sum_result = {
  rounds : int;
  sums : float option array;
}

(* spanning tree of one part's communication graph G[P_i] + H_i *)
let part_tree g parts assigned i =
  let members = parts.Part.parts.(i) in
  let adj = Hashtbl.create 64 in
  let add u v =
    Hashtbl.replace adj u (v :: Option.value (Hashtbl.find_opt adj u) ~default:[]);
    Hashtbl.replace adj v (u :: Option.value (Hashtbl.find_opt adj v) ~default:[])
  in
  (* the part's own induced edges *)
  Array.iter
    (fun v ->
      Graph.iter_adj g v (fun u _ ->
          if parts.Part.part_of.(u) = i && u > v then add u v))
    members;
  (* shortcut edges *)
  Array.iter
    (fun e ->
      let u, v = Graph.edge g e in
      add u v)
    assigned;
  let root = members.(0) in
  let parent = Hashtbl.create 64 in
  Hashtbl.replace parent root (-1);
  let q = Queue.create () in
  Queue.push root q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun u ->
        if not (Hashtbl.mem parent u) then begin
          Hashtbl.replace parent u v;
          Queue.push u q
        end)
      (Option.value (Hashtbl.find_opt adj v) ~default:[])
  done;
  parent

(* schedule a set of messages over shared directed physical edges: message
   (key) travels edge (src, dst) once all of deps.(key) are delivered; each
   directed edge delivers one ready message per round, FIFO. Returns the
   makespan. [messages]: key -> (src, dst, dependencies). *)
let schedule messages =
  let deps_left = Hashtbl.create 256 in
  let dependants = Hashtbl.create 256 in
  let ready : ((int * int), (int * int) Queue.t) Hashtbl.t = Hashtbl.create 256 in
  let push_ready key (src, dst) =
    let q =
      match Hashtbl.find_opt ready (src, dst) with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.replace ready (src, dst) q;
          q
    in
    Queue.push key q
  in
  let pending = ref 0 in
  Hashtbl.iter
    (fun key (src, dst, deps) ->
      incr pending;
      let live = List.filter (Hashtbl.mem messages) deps in
      if live = [] then push_ready key (src, dst)
      else begin
        Hashtbl.replace deps_left key (List.length live);
        List.iter
          (fun d ->
            Hashtbl.replace dependants d
              (key :: Option.value (Hashtbl.find_opt dependants d) ~default:[]))
          live
      end)
    messages;
  let rounds = ref 0 in
  while !pending > 0 do
    incr rounds;
    if !rounds > 1_000_000 then failwith "Aggregate.schedule: stuck";
    let delivered = ref [] in
    Hashtbl.iter
      (fun _ q -> if not (Queue.is_empty q) then delivered := Queue.pop q :: !delivered)
      ready;
    List.iter
      (fun key ->
        decr pending;
        List.iter
          (fun k ->
            match Hashtbl.find_opt deps_left k with
            | Some 1 ->
                Hashtbl.remove deps_left k;
                let src, dst, _ = Hashtbl.find messages k in
                push_ready k (src, dst)
            | Some d -> Hashtbl.replace deps_left k (d - 1)
            | None -> ())
          (Option.value (Hashtbl.find_opt dependants key) ~default:[]))
      !delivered
  done;
  !rounds

let sum sc ~values =
  let tree = sc.Sc.tree in
  let g = tree.Graphlib.Spanning.graph in
  let n = Graph.n g in
  Obs.Span.with_ ~attrs:[ ("n", Obs.Sink.Int n) ] "congest.aggregate.sum"
  @@ fun () ->
  let parts = sc.Sc.parts in
  let nparts = Part.count parts in
  let ptrees = Array.init nparts (fun i -> part_tree g parts sc.Sc.assigned.(i) i) in
  (* convergecast: message (i, v) for every non-root node v of part i's tree,
     travelling v -> parent, depending on v's children messages *)
  let children = Array.map (fun pt ->
      let kids = Hashtbl.create 32 in
      Hashtbl.iter
        (fun v p ->
          if p >= 0 then
            Hashtbl.replace kids p (v :: Option.value (Hashtbl.find_opt kids p) ~default:[]))
        pt;
      kids)
      ptrees
  in
  let up = Hashtbl.create 256 in
  Array.iteri
    (fun i pt ->
      Hashtbl.iter
        (fun v p ->
          if p >= 0 then
            let deps =
              Option.value (Hashtbl.find_opt children.(i) v) ~default:[]
              |> List.map (fun c -> (i, c))
            in
            Hashtbl.replace up (i, v) (v, p, deps))
        pt)
    ptrees;
  let up_rounds = schedule up in
  (* broadcast: message (i, v) for every non-root v, parent -> v, depending on
     the parent's broadcast message (roots' children depend on nothing) *)
  let down = Hashtbl.create 256 in
  Array.iteri
    (fun i pt ->
      Hashtbl.iter
        (fun v p ->
          if p >= 0 then begin
            let gp = Hashtbl.find pt p in
            let deps = if gp >= 0 then [ (i, p) ] else [] in
            Hashtbl.replace down (i, v) (p, v, deps)
          end)
        pt)
    ptrees;
  let down_rounds = schedule down in
  (* the sums themselves, computed exactly (the schedule above establishes
     the cost; values ride along the same messages) *)
  let totals = Array.make nparts 0.0 in
  Array.iteri
    (fun v value ->
      let p = parts.Part.part_of.(v) in
      match (p, value) with
      | p, Some x when p >= 0 -> totals.(p) <- totals.(p) +. x
      | _ -> ())
    values;
  let sums =
    Array.init n (fun v ->
        let p = parts.Part.part_of.(v) in
        if p < 0 then None else Some totals.(p))
  in
  { rounds = up_rounds + down_rounds; sums }

let verify_sum sc ~values result =
  let parts = sc.Sc.parts in
  let nparts = Part.count parts in
  let totals = Array.make nparts 0.0 in
  Array.iteri
    (fun v value ->
      let p = parts.Part.part_of.(v) in
      match (p, value) with
      | p, Some x when p >= 0 -> totals.(p) <- totals.(p) +. x
      | _ -> ())
    values;
  let ok = ref true in
  Array.iteri
    (fun v s ->
      let p = parts.Part.part_of.(v) in
      match (p, s) with
      | p, Some s when p >= 0 -> if abs_float (s -. totals.(p)) > 1e-6 then ok := false
      | p, None when p >= 0 -> ok := false
      | _ -> ())
    result.sums;
  !ok
