type tree = {
  graph : Graph.t;
  root : int;
  parent : int array;
  parent_edge : int array;
  depth : int array;
  order : int array;
}

let bfs_tree g root =
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let depth = Array.make n (-1) in
  let order = Array.make n (-1) in
  (* [order] doubles as the FIFO worklist: for BFS, push order equals pop
     order, so the finished array is exactly the old Queue's visit order *)
  let head = ref 0 and count = ref 1 in
  depth.(root) <- 0;
  order.(0) <- root;
  while !head < !count do
    let v = order.(!head) in
    incr head;
    Graph.iter_adj g v (fun w e ->
        if depth.(w) < 0 then begin
          depth.(w) <- depth.(v) + 1;
          parent.(w) <- v;
          parent_edge.(w) <- e;
          order.(!count) <- w;
          incr count
        end)
  done;
  if !count <> n then invalid_arg "Spanning.bfs_tree: graph is not connected";
  { graph = g; root; parent; parent_edge; depth; order }

let height t = Array.fold_left max 0 t.depth

let is_tree_edge t e =
  let u, v = Graph.edge t.graph e in
  t.parent_edge.(u) = e || t.parent_edge.(v) = e

let tree_edges t =
  let acc = ref [] in
  Array.iteri (fun v e -> if v <> t.root && e >= 0 then acc := e :: !acc) t.parent_edge;
  !acc

let children t =
  let n = Graph.n t.graph in
  let cnt = Array.make n 0 in
  Array.iteri (fun v p -> if v <> t.root && p >= 0 then cnt.(p) <- cnt.(p) + 1) t.parent;
  let out = Array.init n (fun v -> Array.make cnt.(v) (-1)) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun v p ->
      if v <> t.root && p >= 0 then begin
        out.(p).(fill.(p)) <- v;
        fill.(p) <- fill.(p) + 1
      end)
    t.parent;
  out

let subtree_sizes t =
  let n = Graph.n t.graph in
  let sz = Array.make n 1 in
  (* bottom-up over the BFS order *)
  for i = n - 1 downto 0 do
    let v = t.order.(i) in
    if v <> t.root && t.parent.(v) >= 0 then
      sz.(t.parent.(v)) <- sz.(t.parent.(v)) + sz.(v)
  done;
  sz

let path_to_root t v =
  let rec loop v acc =
    if v = t.root then List.rev (v :: acc) else loop t.parent.(v) (v :: acc)
  in
  loop v []

let check t =
  let g = t.graph in
  let n = Graph.n g in
  let ok = ref (Ok ()) in
  let fail msg = if !ok = Ok () then ok := Error msg in
  if t.root < 0 || t.root >= n then fail "root out of range";
  if t.parent.(t.root) <> -1 then fail "root has a parent";
  for v = 0 to n - 1 do
    if v <> t.root then begin
      let p = t.parent.(v) and e = t.parent_edge.(v) in
      if p < 0 || e < 0 then fail "non-root vertex without parent"
      else begin
        let a, b = Graph.edge g e in
        if not ((a = v && b = p) || (a = p && b = v)) then
          fail "parent edge does not join vertex to parent";
        if t.depth.(v) <> t.depth.(p) + 1 then fail "inconsistent depth"
      end
    end
  done;
  (* acyclicity / reachability: every vertex reaches the root in <= n steps *)
  for v = 0 to n - 1 do
    let rec climb u steps =
      if steps > n then fail "parent pointers contain a cycle"
      else if u <> t.root then climb t.parent.(u) (steps + 1)
    in
    climb v 0
  done;
  !ok

(* Both MST strategies order edges by (weight, edge id): ties break on
   the lower edge id.  With that total order the minimum spanning forest
   is unique, so Kruskal and Boruvka return the SAME edge list (ascending
   in the order), and swapping strategies can never change an experiment's
   output. *)

let has_negative w m =
  let neg = ref false in
  for e = 0 to m - 1 do
    if w.(e) < 0.0 then neg := true
  done;
  !neg

(* ascending (weight, id) edge ids.  Fast path: weights >= 0 map through
   [Sort.float_key] into unsigned-63 radix order, payloads are edge ids,
   and radix stability IS the id tie-break.  Rare negative weights fall
   back to a monomorphic comparison sort with the same order. *)
let sorted_edge_ids g w =
  let m = Graph.m g in
  if has_negative w m then begin
    let ids = Array.init m (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = Float.compare w.(a) w.(b) in
        if c <> 0 then c else Int.compare a b)
      ids;
    ids
  end
  else begin
    let keys = Sort.ints (max 1 m) and ids = Sort.ints (max 1 m) in
    for e = 0 to m - 1 do
      Bigarray.Array1.unsafe_set keys e (Sort.float_key w.(e));
      Bigarray.Array1.unsafe_set ids e e
    done;
    Sort.sort_pairs ~len:m keys ids;
    Array.init m (fun i -> Bigarray.Array1.unsafe_get ids i)
  end

let kruskal g w =
  let ids = sorted_edge_ids g w in
  let uf = Union_find.create (Graph.n g) in
  let acc = ref [] in
  Array.iter
    (fun e ->
      let u, v = Graph.edge g e in
      if Union_find.union uf u v then acc := e :: !acc)
    ids;
  List.rev !acc

(* Sort-free Boruvka over the flat edge list: each round scans the still-
   live edges once, records per-component minimum (weight, id) edges, then
   contracts them through the union-find.  The live list shrinks
   geometrically (internal edges are filtered in place during the scan),
   so total work is O(m alpha(n)) per round over a shrinking m — no
   global sort, which wins when the edge list no longer fits in cache. *)
let boruvka g w =
  let n = Graph.n g and m = Graph.m g in
  if m = 0 then []
  else begin
    let uf = Union_find.create n in
    (* better e1 e2: e1 strictly precedes e2 in (weight, id) order *)
    let better e1 e2 = w.(e1) < w.(e2) || (w.(e1) = w.(e2) && e1 < e2) in
    let live = Array.init m (fun i -> i) in
    let live_len = ref m in
    let best = Array.make n (-1) in
    let touched = Array.make n 0 in
    let out = Array.make (min m (max 1 (n - 1))) (-1) in
    let out_len = ref 0 in
    let progress = ref true in
    while !live_len > 0 && !progress do
      let ntouched = ref 0 in
      let kept = ref 0 in
      for i = 0 to !live_len - 1 do
        let e = live.(i) in
        let ru = Union_find.find uf (Graph.edge_u g e) in
        let rv = Union_find.find uf (Graph.edge_v g e) in
        if ru <> rv then begin
          live.(!kept) <- e;
          incr kept;
          (if best.(ru) < 0 then begin
             touched.(!ntouched) <- ru;
             incr ntouched;
             best.(ru) <- e
           end
           else if better e best.(ru) then best.(ru) <- e);
          if best.(rv) < 0 then begin
            touched.(!ntouched) <- rv;
            incr ntouched;
            best.(rv) <- e
          end
          else if better e best.(rv) then best.(rv) <- e
        end
      done;
      live_len := !kept;
      progress := !ntouched > 0;
      for i = 0 to !ntouched - 1 do
        let r = touched.(i) in
        let e = best.(r) in
        best.(r) <- -1;
        (* a mutual-minimum edge is picked by both its components; the
           second union is a no-op *)
        if Union_find.union uf (Graph.edge_u g e) (Graph.edge_v g e) then begin
          out.(!out_len) <- e;
          incr out_len
        end
      done
    done;
    (* normalize to the same ascending (weight, id) order kruskal emits *)
    let res = Array.sub out 0 !out_len in
    Array.sort
      (fun a b ->
        let c = Float.compare w.(a) w.(b) in
        if c <> 0 then c else Int.compare a b)
      res;
    Array.to_list res
  end

type strategy = Kruskal | Boruvka

let mst ?(strategy = Kruskal) g w =
  match strategy with Kruskal -> kruskal g w | Boruvka -> boruvka g w

let prim g w =
  let n = Graph.n g in
  if n = 0 then []
  else begin
    let in_tree = Array.make n false in
    let q = Pqueue.create () in
    let acc = ref [] in
    let add v =
      in_tree.(v) <- true;
      Graph.iter_adj g v (fun u e -> if not in_tree.(u) then Pqueue.push q w.(e) (u, e))
    in
    add 0;
    let rec loop () =
      match Pqueue.pop q with
      | None -> ()
      | Some (_, (v, e)) ->
          if not in_tree.(v) then begin
            acc := e :: !acc;
            add v
          end;
          loop ()
    in
    loop ();
    List.rev !acc
  end

let total_weight w ids = List.fold_left (fun acc e -> acc +. w.(e)) 0.0 ids
