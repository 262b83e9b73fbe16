(* Fixed-size domain pool, stdlib-only (Domain + Mutex + Condition + Atomic).

   Workers are spawned once at [create] and parked on a condition variable;
   each [map_cells] gives every slice one atomic cursor over its contiguous
   chunk of cell indices and hands every worker one closure (its slice
   loop).  A cell is taken by a fetch-and-add on a cursor and accepted while
   the old value is below the chunk end.  A slice drains its own cursor, in
   increasing cell index as a static chunk sweep would, and then makes
   one pass over the other slices' cursors, draining each in turn.  No cell
   is added after dispatch, so a drained cursor stays drained and one pass
   suffices.  Skewed per-cell costs therefore rebalance dynamically, while
   determinism is untouched because results land in an index-addressed
   array and every observable merge is either commutative (counters,
   histograms, span tables) or rank-resolved (gauges, via
   [Obs.Metrics.set_merge_rank]).

   The mailbox mutex provides the happens-before edges both ways:
   everything the caller wrote before submitting (cell array, cursors, obs
   enable flags, installed sink) is visible to the worker, and everything
   the worker wrote (results, captured obs state, a crash report) is
   visible to the caller after the join. *)

type mailbox = {
  m : Mutex.t;
  cv : Condition.t;
  mutable work : (unit -> unit) option;
  mutable stop : bool;
  mutable crashed : (exn * Printexc.raw_backtrace) option;
      (* a task that escaped its closure; the worker survives it *)
}

type t = {
  jobs : int;
  boxes : mailbox array; (* length jobs - 1 *)
  domains : unit Domain.t array;
  mutable live : bool;
  steals : int Atomic.t;
}

let steals_c = Obs.Metrics.counter "exec.pool.steals"
let jobs t = t.jobs
let steal_count t = Atomic.get t.steals

let worker_loop box =
  let rec loop () =
    let task =
      Mutex.protect box.m (fun () ->
          while box.work = None && not box.stop do
            Condition.wait box.cv box.m
          done;
          box.work)
    in
    match task with
    | Some f ->
        (* run outside the lock; a task that raises must still clear the
           mailbox and wake the caller, or the pool deadlocks with every
           other domain parked — the crash is published for the caller to
           re-raise after the join *)
        let crash =
          try
            f ();
            None
          with e -> Some (e, Printexc.get_raw_backtrace ())
        in
        Mutex.protect box.m (fun () ->
            (match crash with Some c -> box.crashed <- Some c | None -> ());
            box.work <- None;
            Condition.broadcast box.cv);
        loop ()
    | None -> (* stop *) ()
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  let boxes =
    Array.init (jobs - 1) (fun _ ->
        {
          m = Mutex.create ();
          cv = Condition.create ();
          work = None;
          stop = false;
          crashed = None;
        })
  in
  let domains =
    Array.map (fun box -> Domain.spawn (fun () -> worker_loop box)) boxes
  in
  { jobs; boxes; domains; live = true; steals = Atomic.make 0 }

let shutdown t =
  if t.live then begin
    t.live <- false;
    Array.iter
      (fun box ->
        Mutex.protect box.m (fun () ->
            box.stop <- true;
            Condition.broadcast box.cv))
      t.boxes;
    (* join every domain before re-raising anything: bailing out on the
       first failed join would leak still-running domains *)
    let first = ref None in
    Array.iter
      (fun d ->
        try Domain.join d
        with e ->
          if !first = None then first := Some (e, Printexc.get_raw_backtrace ()))
      t.domains;
    match !first with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let submit box task =
  Mutex.protect box.m (fun () ->
      while box.work <> None do
        Condition.wait box.cv box.m
      done;
      box.work <- Some task;
      Condition.broadcast box.cv)

let await box =
  Mutex.protect box.m (fun () ->
      while box.work <> None do
        Condition.wait box.cv box.m
      done)

(* contiguous balanced chunks: chunk [s] covers [off s, off (s+1)) and the
   first [n mod slices] chunks get one extra cell *)
let chunk_offset n slices s =
  let q = n / slices and r = n mod slices in
  (s * q) + min s r

let map_cells (type b) t ~f (cells : 'a array) : b array =
  if not t.live then invalid_arg "Pool.map_cells: pool is shut down";
  let n = Array.length cells in
  if n = 0 then [||]
  else begin
    let slices = min t.jobs n in
    if slices = 1 then Array.mapi f cells
    else begin
      let results : b option array = Array.make n None in
      let fails : (int * exn * Printexc.raw_backtrace) option array =
        Array.make slices None
      in
      let snaps : Obs.domain_state option array = Array.make slices None in
      let ctx = Obs.Span.fork_context () in
      let steals0 = Atomic.get t.steals in
      Obs.Metrics.reset_merge_ranks ();
      (* cursor [s] walks chunk [s] upward *)
      let cursors =
        Array.init slices (fun s -> Atomic.make (chunk_offset n slices s))
      in
      (* slice [s] executes cell [i]: the failure slot is per-slice (only
         domain [s] writes it) and keeps the lowest raising cell index, so
         the global minimum over slices is exactly the cell a sequential
         sweep would have raised from *)
      let exec s i =
        Obs.Metrics.set_merge_rank i;
        try results.(i) <- Some (f i cells.(i))
        with e -> (
          let bt = Printexc.get_raw_backtrace () in
          match fails.(s) with
          | Some (j, _, _) when j <= i -> ()
          | _ -> fails.(s) <- Some (i, e, bt))
      in
      (* slice [s] takes cells from chunk [v] until its cursor passes the
         chunk end; each take is one fetch-and-add *)
      let drain s v =
        let cursor = cursors.(v) and stop = chunk_offset n slices (v + 1) in
        let rec go () =
          let i = Atomic.fetch_and_add cursor 1 in
          if i < stop then begin
            if v <> s then Atomic.incr t.steals;
            exec s i;
            go ()
          end
        in
        go ()
      in
      (* own chunk first, then one pass over the others: nothing is added
         after dispatch, so a cursor found drained stays drained *)
      let run_slice s =
        for k = 0 to slices - 1 do
          drain s ((s + k) mod slices)
        done;
        Obs.Metrics.clear_merge_rank ();
        if s > 0 then snaps.(s) <- Some (Obs.capture_domain ())
      in
      (* the caller claims cell 0 before any worker can see its cursor, so
         a slice that drains its own chunk first can never take it; then
         dispatch slices 1.. to the workers and run the rest of slice 0 here
         (chunk 0 is never empty: slices <= n) *)
      let first = Atomic.fetch_and_add cursors.(0) 1 in
      for s = 1 to slices - 1 do
        let box = t.boxes.(s - 1) in
        submit box (fun () ->
            Obs.Span.adopt ctx;
            run_slice s)
      done;
      exec 0 first;
      run_slice 0;
      for s = 1 to slices - 1 do
        await t.boxes.(s - 1)
      done;
      (* merge worker obs state in slice order: deterministic, and (with
         gauge ranks) equal to the sequential accumulation *)
      Array.iter (Option.iter Obs.absorb_domain) snaps;
      let stolen = Atomic.get t.steals - steals0 in
      if stolen > 0 then Obs.Metrics.add steals_c stolen;
      (* an infrastructure crash (a slice loop escaping, not a cell): keep
         the boxes clean and remember the lowest-slice one *)
      let crash = ref None in
      for s = 1 to slices - 1 do
        let box = t.boxes.(s - 1) in
        (match box.crashed with
        | Some c when !crash = None -> crash := Some c
        | _ -> ());
        box.crashed <- None
      done;
      (* re-raise the failure of the lowest-indexed raising cell, matching
         what a sequential left-to-right loop would have thrown *)
      let first_fail =
        Array.fold_left
          (fun acc fo ->
            match (acc, fo) with
            | None, f -> f
            | Some (i, _, _), Some ((j, _, _) as f) when j < i -> Some f
            | acc, _ -> acc)
          None fails
      in
      match (first_fail, !crash) with
      | Some (_, e, bt), _ | None, Some (e, bt) ->
          Printexc.raise_with_backtrace e bt
      | None, None ->
          Array.map
            (function
              | Some r -> r
              | None -> assert false (* no failure => every cell filled *))
            results
    end
  end

let map_list t ~f cells =
  Array.to_list (map_cells t ~f:(fun _ c -> f c) (Array.of_list cells))
