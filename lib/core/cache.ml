(* Domain-safe result caching for the serving tier.

   The cache memoizes (method, canonical query, scheme, k) -> the full
   observable outcome of a query: its ranked (TID, score) list, the
   optimizer's strategy choice, and the isolated work counters.
   Replaying the stored counters on a hit is what keeps the serving
   tier's outcome fingerprint bit-identical between cold and warm passes
   — a hit is indistinguishable from a re-evaluation.

   It follows the topology registry's snapshot-under-[Atomic.t] pattern:
   the entry map lives in ONE immutable snapshot behind an [Atomic.t];
   readers do a single [Atomic.get] and touch only immutable data,
   writers serialize on a mutex, build a new snapshot and publish it
   with [Atomic.set].  LRU recency is kept per entry in an [Atomic.t]
   tick stamped from a global counter, so a hit never takes the lock —
   eviction (under the lock, on insert past capacity) removes the entry
   with the smallest tick.

   Nothing invalidates an entry: an answer depends only on the engine's
   derived tables and topology registry, and both are frozen once the
   engine is built or loaded (serving never registers a topology). *)

module Counters = Topo_sql.Iterator.Counters
module Smap = Map.Make (String)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  insertions : int;
  entries : int;
}

type totals = { results : stats; plans : stats }

type result_payload = {
  ranked : (int * float option) list;
  strategy : Topo_sql.Optimizer.strategy option;
  counters : Counters.snapshot;
}

type entry = { value : result_payload; last_used : int Atomic.t }

type snap = { map : entry Smap.t; count : int }

type t = {
  snap : snap Atomic.t;
  lock : Mutex.t;
  capacity : int;
  tick : int Atomic.t;
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_evictions : int Atomic.t;
  c_insertions : int Atomic.t;
}

let create ?(capacity = 1024) () =
  {
    snap = Atomic.make { map = Smap.empty; count = 0 };
    lock = Mutex.create ();
    capacity = max 1 capacity;
    tick = Atomic.make 0;
    c_hits = Atomic.make 0;
    c_misses = Atomic.make 0;
    c_evictions = Atomic.make 0;
    c_insertions = Atomic.make 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find_result t ~key =
  match Smap.find_opt key (Atomic.get t.snap).map with
  | None ->
      Atomic.incr t.c_misses;
      None
  | Some e ->
      Atomic.incr t.c_hits;
      Atomic.set e.last_used (Atomic.fetch_and_add t.tick 1);
      Some e.value

let evict_lru t s =
  let victim =
    Smap.fold
      (fun key e acc ->
        let tick = Atomic.get e.last_used in
        match acc with Some (_, best) when best <= tick -> acc | _ -> Some (key, tick))
      s.map None
  in
  match victim with
  | None -> s
  | Some (key, _) ->
      Atomic.incr t.c_evictions;
      { map = Smap.remove key s.map; count = s.count - 1 }

let add_result t ~key value =
  locked t (fun () ->
      let s = Atomic.get t.snap in
      let s =
        if Smap.mem key s.map then
          (* another domain won the race with an equivalent value *)
          s
        else begin
          Atomic.incr t.c_insertions;
          let e = { value; last_used = Atomic.make (Atomic.fetch_and_add t.tick 1) } in
          { map = Smap.add key e s.map; count = s.count + 1 }
        end
      in
      let rec shrink s = if s.count > t.capacity then shrink (evict_lru t s) else s in
      Atomic.set t.snap (shrink s))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let result_stats t =
  {
    hits = Atomic.get t.c_hits;
    misses = Atomic.get t.c_misses;
    evictions = Atomic.get t.c_evictions;
    invalidations = 0;
    insertions = Atomic.get t.c_insertions;
    entries = (Atomic.get t.snap).count;
  }

let zero_stats = { hits = 0; misses = 0; evictions = 0; invalidations = 0; insertions = 0; entries = 0 }

let totals t = { results = result_stats t; plans = zero_stats }

let zero_totals = { results = zero_stats; plans = zero_stats }

(* Per-batch deltas: cumulative counters subtracted, the live entry count
   taken from [after]. *)
let diff ~before ~after =
  let b = before.results and a = after.results in
  {
    results =
      {
        hits = a.hits - b.hits;
        misses = a.misses - b.misses;
        evictions = a.evictions - b.evictions;
        invalidations = 0;
        insertions = a.insertions - b.insertions;
        entries = a.entries;
      };
    plans = zero_stats;
  }

let hit_rate s =
  let looked = s.hits + s.misses in
  if looked = 0 then 0.0 else float_of_int s.hits /. float_of_int looked