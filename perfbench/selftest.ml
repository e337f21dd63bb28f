(* Self-checks of the benchmark's workload generators, on a small
   instance (the generators do not depend on its scale):

   - the same seed yields identical request lists, another seed another;
   - serve-distinct never repeats a Request.key;
   - serve-zipf shows result-cache evictions in steady state;
   - routed-hot's timed batches only hit the shard caches, and evict
     nothing. *)

open Perfbench
module Request = Topo_core.Request
module Router = Topo_core.Router
module Cache = Topo_core.Cache
module Engine = Topo_core.Engine

let fail fmt = Printf.ksprintf failwith fmt
let keys a = Array.map Request.key a
let check name ok = if ok then Printf.printf "ok   %s\n%!" name else fail "FAIL %s" name

let same_seed catalog =
  let seed = 42 in
  let a = Workload.order ~seed (Workload.universe catalog) in
  let b = Workload.order ~seed (Workload.universe catalog) in
  let c = Workload.order ~seed:(seed + 1) (Workload.universe catalog) in
  check "same seed, same serve-distinct order" (keys a = keys b);
  check "another seed, another order" (keys a <> keys c);
  let z1 = Workload.zipf_stream ~seed a ~length:5000 and z2 = Workload.zipf_stream ~seed b ~length:5000 in
  check "same seed, same serve-zipf stream" (keys z1 = keys z2);
  let g1 = Workload.routed_batches ~seed (Workload.routed_hot a)
  and g2 = Workload.routed_batches ~seed (Workload.routed_hot b) in
  let draw g = List.init 200 (fun _ -> List.map Request.key (g ())) in
  check "same seed, same routed-hot batches" (draw g1 = draw g2);
  a

let distinct_keys ordered =
  let warm, timed = Workload.distinct ordered in
  let all = keys (Array.append warm timed) in
  let seen = Hashtbl.create (Array.length all) in
  Array.iter (fun k -> Hashtbl.replace seen k ()) all;
  Printf.printf "     universe of %d requests\n" (Array.length ordered);
  check "serve-distinct never repeats a key" (Hashtbl.length seen = Array.length all);
  check "serve-distinct covers the whole universe" (Array.length all = Array.length ordered)

let zipf_evicts (off : Setup.offline) ordered =
  let engine = off.Setup.engine in
  let stream = Workload.zipf_stream ~seed:42 ordered ~length:(Workload.zipf_warmup * 2) in
  let cache = Engine.cache engine in
  let next = Atomic.make 0 in
  let pass n =
    Bench.closed_loop ~clients:1 ~engine ~cache ~next ~stop:(Bench.until_count n) (fun i -> stream.(i))
  in
  ignore (pass Workload.zipf_warmup);
  let steady = pass (Workload.zipf_warmup * 2) in
  let r = (Option.get steady.Bench.cache_delta).Cache.results in
  Printf.printf "     steady state: hit rate %.3f, %d evictions\n" (Cache.hit_rate r) r.Cache.evictions;
  check "serve-zipf evicts in steady state" (r.Cache.evictions > 0 && r.Cache.hits > 0)

let routed_only_hits ~dir (off : Setup.offline) ordered =
  let hot = Workload.routed_hot ordered in
  let slices = Setup.slice ~dir off.Setup.engine in
  Setup.with_fleet slices (fun fleet ->
      List.iter (fun b -> ignore (Router.exec fleet.Setup.router b)) (Workload.routed_warmup hot);
      let before = Bench.fleet_totals slices in
      let next = Workload.routed_batches ~seed:42 hot in
      for _ = 1 to 200 do
        ignore (Router.exec fleet.Setup.router (next ()))
      done;
      let r = (Cache.diff ~before ~after:(Bench.fleet_totals slices)).Cache.results in
      check "routed-hot timed batches: hit rate 1.0"
        (r.Cache.misses = 0 && r.Cache.hits = 200 * Workload.batch_size);
      check "routed-hot timed batches: no evictions" (r.Cache.evictions = 0))

let () =
  Setup.with_dir (fun dir ->
      let off = Setup.offline ~scale:0.05 ~dir () in
      let ordered = same_seed (Bench.catalog off) in
      distinct_keys ordered;
      zipf_evicts off ordered;
      routed_only_hits ~dir off ordered)
