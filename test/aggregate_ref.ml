(* Reference implementation of part-wise minimum aggregation: the
   Hashtbl-per-node version that Congest.Aggregate.minimum replaced with
   flat CSR-indexed arrays.  Kept only as a test oracle.  It speaks the same
   4-word message format and keeps the same per-neighbour FIFO discipline,
   so every fault-free count (rounds, messages, words, per-edge loads,
   per-round series) must agree with the library version; only the order
   in which a node walks its neighbours when sending differs (Hashtbl
   bucket order here, CSR adjacency order there). *)

module Graph = Graphlib.Graph
module Network = Congest.Network
module Part = Shortcuts.Part
module Sc = Shortcuts.Shortcut

type node_state = {
  best : (int, float * int) Hashtbl.t;  (* part -> current min *)
  queues : (int, int Queue.t) Hashtbl.t;  (* neighbor -> pending part ids *)
  queued : (int * int, unit) Hashtbl.t;
}

let minimum ?max_rounds ?trace sc ~values =
  let tree = sc.Sc.tree in
  let g = tree.Graphlib.Spanning.graph in
  let n = Graph.n g in
  let parts = sc.Sc.parts in
  let part_of = parts.Part.part_of in
  let by_part : (int, int list) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 4)
  in
  let seen = Hashtbl.create 64 in
  let allow v w p =
    if not (Hashtbl.mem seen (v, w, p)) then begin
      Hashtbl.replace seen (v, w, p) ();
      let cur = Option.value (Hashtbl.find_opt by_part.(v) p) ~default:[] in
      Hashtbl.replace by_part.(v) p (w :: cur)
    end
  in
  Array.iteri
    (fun p edges ->
      Array.iter
        (fun e ->
          let u, v = Graph.edge g e in
          allow u v p;
          allow v u p)
        edges)
    sc.Sc.assigned;
  Graph.iter_edges g (fun _ u v ->
      let pu = part_of.(u) in
      if pu >= 0 && pu = part_of.(v) then begin
        allow u v pu;
        allow v u pu
      end);
  let enqueue st w p =
    if not (Hashtbl.mem st.queued (w, p)) then begin
      Hashtbl.replace st.queued (w, p) ();
      let q =
        match Hashtbl.find_opt st.queues w with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace st.queues w q;
            q
      in
      Queue.push p q
    end
  in
  let improve st v p value =
    let better =
      match Hashtbl.find_opt st.best p with
      | None -> true
      | Some cur -> value < cur  (* polymorphic, as the original was *)
    in
    if better then begin
      Hashtbl.replace st.best p value;
      match Hashtbl.find_opt by_part.(v) p with
      | Some nbrs -> List.iter (fun w -> enqueue st w p) nbrs
      | None -> ()
    end
  in
  let algo =
    {
      Network.init =
        (fun _ v ->
          let st =
            {
              best = Hashtbl.create 4;
              queues = Hashtbl.create 4;
              queued = Hashtbl.create 4;
            }
          in
          let p = part_of.(v) in
          (match (p, values.(v)) with
          | p, Some value when p >= 0 -> improve st v p value
          | _ -> ());
          st);
      step =
        (fun ctx st ->
          let v = Network.node ctx in
          for i = 0 to Network.inbox_size ctx - 1 do
            let p = Network.inbox_word ctx i 0 in
            let hi = Network.inbox_word ctx i 1 in
            let lo = Network.inbox_word ctx i 2 in
            let data = Network.inbox_word ctx i 3 in
            let bits =
              Int64.logor
                (Int64.shift_left (Int64.of_int hi) 32)
                (Int64.of_int (lo land 0xFFFFFFFF))
            in
            improve st v p (Int64.float_of_bits bits, data)
          done;
          Hashtbl.iter
            (fun w q ->
              if not (Queue.is_empty q) then begin
                let p = Queue.pop q in
                Hashtbl.remove st.queued (w, p);
                let key, data = Hashtbl.find st.best p in
                let bits = Int64.bits_of_float key in
                Network.send ctx w
                  [|
                    p;
                    Int64.to_int (Int64.shift_right_logical bits 32);
                    Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
                    data;
                  |]
              end)
            st.queues;
          st);
      finished =
        (fun st ->
          Hashtbl.fold (fun _ q acc -> acc && Queue.is_empty q) st.queues true);
    }
  in
  let states, stats = Network.run ?max_rounds ?trace g algo in
  let mins =
    Array.init n (fun v ->
        let p = part_of.(v) in
        if p < 0 then None else Hashtbl.find_opt states.(v).best p)
  in
  (stats, mins)
