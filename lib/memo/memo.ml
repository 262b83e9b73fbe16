(* The serving layer's graph-resolution table (DESIGN.md section 10): a
   mutex-guarded string-keyed table of graphs.  The lock covers only the
   table and counters, never a build. *)

type stats = { hits : int; misses : int; entries : int; bytes : int }

let mutex = Mutex.create ()
let table : (string, Graphlib.Graph.t) Hashtbl.t = Hashtbl.create 16
let hits = ref 0
let misses = ref 0
let bytes = ref 0

let find_or_compute key build =
  Mutex.lock mutex;
  match Hashtbl.find_opt table key with
  | Some g ->
      incr hits;
      Mutex.unlock mutex;
      g
  | None ->
      incr misses;
      Mutex.unlock mutex;
      let g = build () in
      Mutex.lock mutex;
      if not (Hashtbl.mem table key) then begin
        Hashtbl.add table key g;
        bytes := !bytes + Graphlib.Graph.heap_bytes g
      end;
      Mutex.unlock mutex;
      g

let clear () =
  Mutex.lock mutex;
  Hashtbl.reset table;
  bytes := 0;
  Mutex.unlock mutex

let stats () =
  Mutex.lock mutex;
  let s =
    {
      hits = !hits;
      misses = !misses;
      entries = Hashtbl.length table;
      bytes = !bytes;
    }
  in
  Mutex.unlock mutex;
  s
