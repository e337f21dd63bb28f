(* The serving tier's result cache: hit/miss accounting and LRU
   eviction order (one fixed case plus a QCheck reference-model run),
   what is and is not memoized, cache transparency (cold, warm and
   uncached runs fingerprint bit-identically across all nine methods),
   and hit counting when four domains share one cache. *)

open Topo_core
module Pool = Topo_util.Pool
module Counters = Topo_sql.Iterator.Counters

let paper_engine =
  lazy
    (Engine.build
       (Biozon.Paper_db.catalog ())
       ~pairs:[ ("Protein", "DNA") ]
       ~pruning_threshold:50 ())

let snapshot tuples = { Counters.tuples; index_probes = 0; rows_scanned = 0 }

let payload tuples = { Cache.ranked = [ (tuples, None) ]; strategy = None; counters = snapshot tuples }

let ranked = Alcotest.(list (pair int (option (float 1e-9))))

(* The result tier's counters, and their zero, as [Cache.totals] reports them. *)
let result_stats cache = (Cache.totals cache).Cache.results
let zero_stats = Cache.zero_totals.Cache.results

(* --- LRU semantics ------------------------------------------------------- *)

let test_hit_miss () =
  let cache = Cache.create () in
  Alcotest.(check bool) "empty cache misses" true (Cache.find_result cache ~key:"a" = None);
  Cache.add_result cache ~key:"a" (payload 11);
  (match Cache.find_result cache ~key:"a" with
  | Some p ->
      Alcotest.check ranked "payload ranked round-trips" [ (11, None) ] p.Cache.ranked;
      Alcotest.(check int) "payload counters round-trip" 11 p.Cache.counters.Counters.tuples
  | None -> Alcotest.fail "inserted entry not found");
  let s = result_stats cache in
  Alcotest.(check (triple int int int))
    "one miss, one hit, one entry" (1, 1, 1)
    (s.Cache.misses, s.Cache.hits, s.Cache.entries)

let test_lru_eviction () =
  let cache = Cache.create ~capacity:3 () in
  List.iter (fun (k, v) -> Cache.add_result cache ~key:k (payload v))
    [ ("a", 1); ("b", 2); ("c", 3) ];
  (* touch "a": "b" becomes the least recently used entry *)
  Alcotest.(check bool) "touch a" true (Cache.find_result cache ~key:"a" <> None);
  Cache.add_result cache ~key:"d" (payload 4);
  Alcotest.(check bool) "LRU victim b evicted" true (Cache.find_result cache ~key:"b" = None);
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " survives") true (Cache.find_result cache ~key:k <> None))
    [ "a"; "c"; "d" ];
  let s = result_stats cache in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "at capacity" 3 s.Cache.entries

let test_present_key_insert_kept () =
  let cache = Cache.create () in
  Cache.add_result cache ~key:"a" (payload 1);
  (* a racing insert of a present key is dropped: by the determinism
     contract the values are equal, so the first entry stands *)
  Cache.add_result cache ~key:"a" (payload 99);
  (match Cache.find_result cache ~key:"a" with
  | Some p -> Alcotest.check ranked "first value kept" [ (1, None) ] p.Cache.ranked
  | None -> Alcotest.fail "entry vanished");
  Alcotest.(check int) "one insertion recorded" 1 (result_stats cache).Cache.insertions

(* Every resident entry is hit after its insert, so each eviction first
   pops items whose tick has moved and pushes them back: the victim is
   still the least recently used entry, in hit order. *)
let test_lru_after_every_entry_hit () =
  let cache = Cache.create ~capacity:4 () in
  List.iteri (fun i k -> Cache.add_result cache ~key:k (payload i)) [ "a"; "b"; "c"; "d" ];
  List.iter
    (fun k -> Alcotest.(check bool) ("hit " ^ k) true (Cache.find_result cache ~key:k <> None))
    [ "c"; "a"; "d"; "b" ];
  List.iteri
    (fun i (k, victim) ->
      Cache.add_result cache ~key:k (payload (10 + i));
      Alcotest.(check int) (k ^ ": one more eviction") (i + 1) (result_stats cache).Cache.evictions;
      Alcotest.(check bool) (k ^ " evicts " ^ victim) true (Cache.find_result cache ~key:victim = None))
    [ ("e", "c"); ("f", "a"); ("g", "d"); ("h", "b"); ("i", "e") ];
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " resident") true (Cache.find_result cache ~key:k <> None))
    [ "f"; "g"; "h"; "i" ];
  Alcotest.(check int) "at capacity" 4 (result_stats cache).Cache.entries

(* --- reference LRU model --------------------------------------------------- *)

type op = Add of int * int | Find of int

let op_name = function Add (k, v) -> Printf.sprintf "add k%d=%d" k v | Find k -> Printf.sprintf "find k%d" k

(* The cache's contract as a plain list of (key, value), most recently
   used first: a hit moves its key to the front; an insert of a new key
   puts it at the front and evicts from the back past capacity; an
   insert of a present key changes nothing. *)
type model = { lru : (int * int) list; st : Cache.stats }

let model_step ~capacity m op =
  let st = m.st in
  match op with
  | Find k -> (
      match List.assoc_opt k m.lru with
      | None -> ({ m with st = { st with Cache.misses = st.Cache.misses + 1 } }, None)
      | Some v ->
          let st = { st with Cache.hits = st.Cache.hits + 1 } in
          ({ lru = (k, v) :: List.remove_assoc k m.lru; st }, Some v))
  | Add (k, v) ->
      if List.mem_assoc k m.lru then (m, None)
      else begin
        let lru = (k, v) :: m.lru in
        let st = { st with Cache.insertions = st.Cache.insertions + 1 } in
        if List.length lru <= capacity then ({ lru; st }, None)
        else
          let st = { st with Cache.evictions = st.Cache.evictions + 1 } in
          ({ lru = List.filteri (fun i _ -> i < capacity) lru; st }, None)
      end

let prop_lru_matches_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k v -> Add (k, v)) (int_bound 9) (int_bound 99));
          (4, map (fun k -> Find k) (int_bound 9));
        ])
  in
  let print (capacity, ops) =
    Printf.sprintf "capacity %d: %s" capacity (String.concat "; " (List.map op_name ops))
  in
  QCheck.Test.make ~name:"LRU order and stats match a reference model" ~count:300
    (QCheck.make ~print QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 0 60) op_gen)))
    (fun (capacity, ops) ->
      let cache = Cache.create ~capacity () in
      let key k = Printf.sprintf "k%d" k in
      let step (m, i) op =
        let found =
          match op with
          | Add (k, v) ->
              Cache.add_result cache ~key:(key k) (payload v);
              None
          | Find k ->
              Option.map (fun p -> fst (List.hd p.Cache.ranked)) (Cache.find_result cache ~key:(key k))
        in
        let m, expected = model_step ~capacity m op in
        let want = { m.st with Cache.entries = List.length m.lru } in
        if found <> expected || result_stats cache <> want then
          QCheck.Test.fail_reportf "step %d (%s) diverges from the model" i (op_name op);
        (m, i + 1)
      in
      ignore (List.fold_left step ({ lru = []; st = zero_stats }, 0) ops);
      true)

(* --- what is memoized ---------------------------------------------------- *)

let test_failures_not_memoized () =
  let engine = Lazy.force paper_engine in
  let catalog = engine.Engine.ctx.Context.catalog in
  let cache = Engine.cache engine in
  (* Protein-Protein was never built: evaluation fails with Unknown_pair *)
  let req =
    Request.make Engine.Full_top
      (Query.make (Query.endpoint catalog "Protein") (Query.endpoint catalog "Protein"))
  in
  let once () = Engine.run_request engine ~cache req in
  List.iter
    (fun label ->
      let o = once () in
      Alcotest.(check bool) (label ^ " run fails") true
        (o.Request.result
        = Request.Failed (Request.unknown_pair ~t1:"Protein" ~t2:"Protein" [ ("Protein", "DNA") ]));
      Alcotest.(check bool) (label ^ " run is a miss") true (o.Request.cache = Request.Miss))
    [ "first"; "second" ];
  Alcotest.(check int) "no result entry inserted" 0 (result_stats cache).Cache.insertions

(* A verified run prices and checks every plan fresh: it neither looks up
   nor inserts anything, on an empty cache or on one holding its answer.
   Both halves of the delta stay zero; only the resident entry count
   carries over. *)
let test_verify_plans_bypasses_cache () =
  let engine = Lazy.force paper_engine in
  let cache = Engine.cache engine in
  let req = Request.make Engine.Full_top_k (Query.q1 engine.Engine.ctx.Context.catalog) in
  let verified label =
    let before = Cache.totals cache in
    let o = Engine.run_request engine ~cache ~verify_plans:true req in
    Alcotest.(check bool) (label ^ ": never answered from the cache") true
      (o.Request.cache = Request.Uncached);
    Alcotest.(check bool) (label ^ ": verified run succeeds") true
      (Request.answered o.Request.result <> None);
    let entries = before.Cache.results.Cache.entries in
    Alcotest.(check bool) (label ^ ": no cache traffic") true
      (Cache.diff ~before ~after:(Cache.totals cache)
      = { Cache.results = { zero_stats with Cache.entries }; plans = zero_stats })
  in
  verified "empty cache";
  ignore (Engine.run_request engine ~cache req);
  verified "warm cache"

(* --- transparency: cold = warm = uncached --------------------------------- *)

let prop_cold_warm_uncached_identical =
  QCheck.Test.make ~name:"generated instance: cold = warm = uncached across all nine methods"
    ~count:3
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let params =
        Biozon.Generator.scale 0.08 { Biozon.Generator.default with Biozon.Generator.seed = seed }
      in
      let engine =
        Engine.build
          (Biozon.Generator.generate params)
          ~pairs:[ ("Protein", "DNA"); ("Protein", "Interaction") ]
          ~pruning_threshold:10 ()
      in
      let catalog = engine.Engine.ctx.Context.catalog in
      let requests =
        List.concat_map
          (fun method_ ->
            List.map
              (fun scheme ->
                Request.make ~scheme ~k:10 method_
                  (Query.make (Query.endpoint catalog "Protein") (Query.endpoint catalog "DNA")))
              [ Ranking.Freq; Ranking.Rare ])
          Engine.all_methods
      in
      let fp ?cache () =
        Serve.fingerprint (Serve.exec (Serve.config ~jobs:1 ?cache ()) engine requests).Serve.outcomes
      in
      let uncached = fp () in
      let cache = Engine.cache engine in
      let cold = fp ~cache () in
      let warm = fp ~cache () in
      let warm_stats = result_stats cache in
      uncached = cold && uncached = warm && warm_stats.Cache.hits >= List.length requests)

(* --- concurrent hit counting ----------------------------------------------- *)

let test_concurrent_hits_across_domains () =
  let engine = Lazy.force paper_engine in
  let catalog = engine.Engine.ctx.Context.catalog in
  let requests =
    List.concat_map
      (fun method_ ->
        List.map
          (fun scheme -> Request.make ~scheme ~k:10 method_ (Query.q1 catalog))
          [ Ranking.Freq; Ranking.Rare; Ranking.Domain ])
      Engine.all_methods
  in
  let cache = Engine.cache engine in
  Pool.with_pool ~jobs:4 (fun pool ->
      let serve () =
        let r = Serve.exec (Serve.config ~pool ~cache ()) engine requests in
        (r.Serve.outcomes, r.Serve.stats)
      in
      let cold, cold_stats = serve () in
      let warm, warm_stats = serve () in
      Alcotest.(check string) "warm batch bit-identical to cold" (Serve.fingerprint cold)
        (Serve.fingerprint warm);
      (* aggregate assertions only: which domain takes which miss races,
         the totals do not *)
      let n = List.length requests in
      (match cold_stats.Serve.cache with
      | Some c ->
          Alcotest.(check int) "cold batch: every request looked up" n
            (c.Cache.results.Cache.hits + c.Cache.results.Cache.misses)
      | None -> Alcotest.fail "cold batch reported no cache stats");
      match warm_stats.Serve.cache with
      | Some c ->
          Alcotest.(check int) "warm batch: all hits" n c.Cache.results.Cache.hits;
          Alcotest.(check int) "warm batch: no misses" 0 c.Cache.results.Cache.misses;
          Alcotest.(check int) "warm batch: no insertions" 0 c.Cache.results.Cache.insertions
      | None -> Alcotest.fail "warm batch reported no cache stats")

(* Two domains interleave inserts of their own keys with hits on both
   domains' keys, over four times the capacity: whichever entries survive
   the racing evictions, the accounting stays exact and every resident
   key answers with its own value. *)
let test_two_domains_insert_and_hit () =
  let capacity = 64 in
  let keys = 4 * capacity in
  let cache = Cache.create ~capacity () in
  let key i = Printf.sprintf "k%d" i in
  let worker parity () =
    let prng = Topo_util.Prng.create (17 + parity) in
    for i = 0 to (keys / 2) - 1 do
      let own = (2 * i) + parity in
      Cache.add_result cache ~key:(key own) (payload own);
      for _ = 1 to 3 do
        ignore (Cache.find_result cache ~key:(key (Topo_util.Prng.int prng (own + 1))))
      done
    done
  in
  let other = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join other;
  let s = result_stats cache in
  Alcotest.(check int) "entries = capacity" capacity s.Cache.entries;
  Alcotest.(check int) "insertions - evictions = entries" s.Cache.entries (s.Cache.insertions - s.Cache.evictions);
  Alcotest.(check int) "every key inserted once" keys s.Cache.insertions;
  let resident =
    List.filter
      (fun i ->
        match Cache.find_result cache ~key:(key i) with
        | Some p ->
            Alcotest.check ranked (key i ^ " answers its own value") [ (i, None) ] p.Cache.ranked;
            true
        | None -> false)
      (List.init keys Fun.id)
  in
  Alcotest.(check int) "every resident key hits" capacity (List.length resident)

let suites =
  [
    ( "cache.lru",
      [
        Alcotest.test_case "hit and miss accounting" `Quick test_hit_miss;
        Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
        Alcotest.test_case "racing insert of a present key kept" `Quick
          test_present_key_insert_kept;
        QCheck_alcotest.to_alcotest prop_lru_matches_model;
        Alcotest.test_case "LRU victim when every entry was hit" `Quick test_lru_after_every_entry_hit;
      ] );
    ( "cache.epoch",
      [
        Alcotest.test_case "failures are not memoized" `Quick test_failures_not_memoized;
        Alcotest.test_case "verify_plans bypasses the result tier" `Quick
          test_verify_plans_bypasses_cache;
      ] );
    ( "cache.equality",
      [ QCheck_alcotest.to_alcotest prop_cold_warm_uncached_identical ] );
    ( "cache.concurrent",
      [
        Alcotest.test_case "four domains share one cache" `Quick
          test_concurrent_hits_across_domains;
        Alcotest.test_case "two domains insert and hit past capacity" `Quick test_two_domains_insert_and_hit;
      ] );
  ]
