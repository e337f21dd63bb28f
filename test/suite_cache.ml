(* The serving tier's result + plan cache: hit/miss accounting and LRU
   eviction order, epoch-based invalidation against the topology
   registry's generation — including the mid-batch re-registration
   scenario where a stale cached answer must never be served — cache
   transparency (cold, warm and uncached runs fingerprint bit-identically
   across all nine methods), and hit counting when four domains share one
   cache. *)

open Topo_core
module Pool = Topo_util.Pool
module Counters = Topo_sql.Iterator.Counters
module Lgraph = Topo_graph.Lgraph

let paper_engine =
  lazy
    (Engine.build
       (Biozon.Paper_db.catalog ())
       ~pairs:[ ("Protein", "DNA") ]
       ~pruning_threshold:50 ())

let snapshot tuples = { Counters.tuples; index_probes = 0; rows_scanned = 0 }

let payload tuples = { Cache.ranked = [ (tuples, None) ]; strategy = None; counters = snapshot tuples }

let ranked = Alcotest.(list (pair int (option (float 1e-9))))

(* A labeled path graph with arbitrary (distinct) labels: registering one
   the registry has not seen is a guaranteed mutation. *)
let path2 la lb le =
  let g = Lgraph.empty () in
  Lgraph.add_node g ~id:1 ~label:la;
  Lgraph.add_node g ~id:2 ~label:lb;
  Lgraph.add_edge g ~u:1 ~v:2 ~label:le;
  g

(* --- LRU semantics ------------------------------------------------------- *)

let test_hit_miss () =
  let cache = Cache.create (Topology.create_registry ()) in
  Alcotest.(check bool) "empty cache misses" true (Cache.find_result cache ~key:"a" = None);
  Cache.add_result cache ~key:"a" ~stamp:(Cache.stamp cache) (payload 11);
  (match Cache.find_result cache ~key:"a" with
  | Some p ->
      Alcotest.check ranked "payload ranked round-trips" [ (11, None) ] p.Cache.ranked;
      Alcotest.(check int) "payload counters round-trip" 11 p.Cache.counters.Counters.tuples
  | None -> Alcotest.fail "inserted entry not found");
  let s = Cache.result_stats cache in
  Alcotest.(check (triple int int int))
    "one miss, one hit, one entry" (1, 1, 1)
    (s.Cache.misses, s.Cache.hits, s.Cache.entries)

let test_lru_eviction () =
  let cache = Cache.create ~results:3 (Topology.create_registry ()) in
  let stamp = Cache.stamp cache in
  List.iter (fun (k, v) -> Cache.add_result cache ~key:k ~stamp (payload v))
    [ ("a", 1); ("b", 2); ("c", 3) ];
  (* touch "a": "b" becomes the least recently used entry *)
  Alcotest.(check bool) "touch a" true (Cache.find_result cache ~key:"a" <> None);
  Cache.add_result cache ~key:"d" ~stamp (payload 4);
  Alcotest.(check bool) "LRU victim b evicted" true (Cache.find_result cache ~key:"b" = None);
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " survives") true (Cache.find_result cache ~key:k <> None))
    [ "a"; "c"; "d" ];
  let s = Cache.result_stats cache in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "at capacity" 3 s.Cache.entries

let test_same_stamp_insert_kept () =
  let cache = Cache.create (Topology.create_registry ()) in
  let stamp = Cache.stamp cache in
  Cache.add_result cache ~key:"a" ~stamp (payload 1);
  (* a racing same-key same-stamp insert is dropped: by the determinism
     contract the values are equal, so the first entry stands *)
  Cache.add_result cache ~key:"a" ~stamp (payload 99);
  (match Cache.find_result cache ~key:"a" with
  | Some p -> Alcotest.check ranked "first value kept" [ (1, None) ] p.Cache.ranked
  | None -> Alcotest.fail "entry vanished");
  Alcotest.(check int) "one insertion recorded" 1 (Cache.result_stats cache).Cache.insertions

let test_plan_tier () =
  let cache = Cache.create (Topology.create_registry ()) in
  Alcotest.(check bool) "plan miss" true (Cache.find_plan cache ~key:"p" = None);
  Cache.add_plan cache ~key:"p" ~stamp:(Cache.stamp cache)
    (Cache.Choice Topo_sql.Optimizer.Early_termination);
  (match Cache.find_plan cache ~key:"p" with
  | Some (Cache.Choice Topo_sql.Optimizer.Early_termination) -> ()
  | Some _ -> Alcotest.fail "wrong plan payload"
  | None -> Alcotest.fail "plan entry not found");
  let s = Cache.plan_stats cache in
  Alcotest.(check (pair int int)) "plan tier accounting" (1, 1) (s.Cache.hits, s.Cache.misses)

(* --- epoch invalidation --------------------------------------------------- *)

let test_generation_bumps_only_on_mutation () =
  let registry = Topology.create_registry () in
  let g0 = Topology.generation registry in
  ignore (Topology.register registry (path2 1 2 10) ~decomposition:[ "p" ]);
  let g1 = Topology.generation registry in
  Alcotest.(check bool) "new topology bumps" true (g1 > g0);
  (* steady state: same graph, already-known decomposition — lock-free
     fast path, no mutation, no bump *)
  ignore (Topology.register registry (path2 1 2 10) ~decomposition:[ "p" ]);
  Alcotest.(check int) "no-op registration does not bump" g1 (Topology.generation registry);
  ignore (Topology.register registry (path2 1 2 10) ~decomposition:[ "q" ]);
  Alcotest.(check bool) "new decomposition bumps" true (Topology.generation registry > g1)

let test_stale_entry_is_a_miss () =
  let registry = Topology.create_registry () in
  let cache = Cache.create registry in
  Cache.add_result cache ~key:"a" ~stamp:(Cache.stamp cache) (payload 1);
  Alcotest.(check bool) "fresh entry hits" true (Cache.find_result cache ~key:"a" <> None);
  ignore (Topology.register registry (path2 1 2 10) ~decomposition:[ "p" ]);
  Alcotest.(check bool) "stale entry misses" true (Cache.find_result cache ~key:"a" = None);
  let s = Cache.result_stats cache in
  Alcotest.(check int) "counted as invalidation" 1 s.Cache.invalidations;
  Alcotest.(check int) "stale entry dropped" 0 s.Cache.entries

(* The ISSUE's mid-batch scenario: a cached answer exists, the SQL method
   re-registers a topology (mutating the registry), and the very next
   lookup must recompute rather than serve the stale entry.  The bogus
   payload planted at the old generation proves the cache was really
   being consulted before the mutation. *)
let test_no_stale_result_served_after_reregistration () =
  let engine = Lazy.force paper_engine in
  let registry = engine.Engine.ctx.Context.registry in
  let req = Request.make Engine.Fast_top_k (Query.q1 engine.Engine.ctx.Context.catalog) in
  let correct =
    match (Engine.run_request engine req).Request.result with
    | Request.Done r -> r.Request.ranked
    | Request.Failed e -> raise e
    | other -> Alcotest.failf "unexpected outcome %s" (Request.outcome_result_name other)
  in
  (* plant a bogus entry for the request at the current generation *)
  let cache = Engine.cache engine in
  Cache.add_result cache ~key:(Request.key req) ~stamp:(Cache.stamp cache) (payload 424242);
  let bogus = Engine.run_request engine ~cache req in
  Alcotest.(check string) "bogus entry is served while fresh" "hit"
    (Request.cache_status_name bogus.Request.cache);
  (match bogus.Request.result with
  | Request.Done r -> Alcotest.check ranked "(the planted payload)" [ (424242, None) ] r.Request.ranked
  | Request.Failed e -> raise e
  | other -> Alcotest.failf "unexpected outcome %s" (Request.outcome_result_name other));
  (* mid-batch online registration: a topology this registry has not seen *)
  ignore (Topology.register registry (path2 900001 900002 900003) ~decomposition:[ "suite_cache" ]);
  let after = Engine.run_request engine ~cache req in
  Alcotest.(check string) "stale entry not served: recomputed" "miss"
    (Request.cache_status_name after.Request.cache);
  (match after.Request.result with
  | Request.Done r -> Alcotest.check ranked "recomputed answer correct" correct r.Request.ranked
  | Request.Failed e -> raise e
  | other -> Alcotest.failf "unexpected outcome %s" (Request.outcome_result_name other));
  Alcotest.(check bool) "invalidation recorded" true
    ((Cache.result_stats cache).Cache.invalidations >= 1);
  (* and the recomputed entry is cached again under the new generation *)
  Alcotest.(check string) "fresh entry hits again" "hit"
    (Request.cache_status_name (Engine.run_request engine ~cache req).Request.cache)

let test_failures_not_memoized () =
  let engine = Lazy.force paper_engine in
  let catalog = engine.Engine.ctx.Context.catalog in
  let cache = Engine.cache engine in
  (* Protein-Protein was never built: evaluation raises Not_found *)
  let req =
    Request.make Engine.Full_top
      (Query.make (Query.endpoint catalog "Protein") (Query.endpoint catalog "Protein"))
  in
  let once () = Engine.run_request engine ~cache req in
  List.iter
    (fun label ->
      let o = once () in
      Alcotest.(check bool) (label ^ " run fails") true (Request.failure o.Request.result <> None);
      Alcotest.(check string) (label ^ " run is a miss") "miss"
        (Request.cache_status_name o.Request.cache))
    [ "first"; "second" ];
  Alcotest.(check int) "no result entry inserted" 0 (Cache.result_stats cache).Cache.insertions

(* A checked lookup re-verifies the memoized plan against the live
   catalog: a corrupted (or staled-by-schema-drift) cached plan must
   raise Plan_error rather than execute, while unchecked lookups still
   serve the entry verbatim. *)
let test_checked_plan_hit_catches_corruption () =
  let engine = Lazy.force paper_engine in
  let catalog = engine.Engine.ctx.Context.catalog in
  let cache = Cache.create (Topology.create_registry ()) in
  let bogus =
    Topo_sql.Physical.Scan { table = "no_such_table"; alias = None; pred = None }
  in
  Cache.add_plan cache ~key:"corrupt" ~stamp:(Cache.stamp cache)
    (Cache.Regular_plan (bogus, 1.0));
  Alcotest.(check bool) "unchecked lookup serves the entry" true
    (Cache.find_plan cache ~key:"corrupt" <> None);
  (match Cache.find_plan ~check:catalog cache ~key:"corrupt" with
  | exception Topo_sql.Plan_check.Plan_error _ -> ()
  | exception e -> raise e
  | _ -> Alcotest.fail "checked lookup served a corrupted plan without Plan_error");
  (* a Choice entry has no plan to verify and passes a checked lookup *)
  Cache.add_plan cache ~key:"choice" ~stamp:(Cache.stamp cache)
    (Cache.Choice Topo_sql.Optimizer.Early_termination);
  Alcotest.(check bool) "checked lookup passes a Choice entry" true
    (Cache.find_plan ~check:catalog cache ~key:"choice" <> None)

(* verify_plans keeps the plan tier live: the second checked run serves
   the memoized (and re-verified) plan instead of re-pricing. *)
let test_checked_runs_use_plan_tier () =
  let engine = Lazy.force paper_engine in
  let cache = Engine.cache engine in
  let req = Request.make Engine.Full_top_k (Query.q1 engine.Engine.ctx.Context.catalog) in
  let before = Cache.plan_stats cache in
  let first = Engine.run_request engine ~cache ~verify_plans:true req in
  Alcotest.(check bool) "first checked run succeeds" true (Request.answered first.Request.result <> None);
  let mid = Cache.plan_stats cache in
  Alcotest.(check bool) "checked run consults the plan tier" true
    (mid.Cache.hits + mid.Cache.misses > before.Cache.hits + before.Cache.misses);
  let second = Engine.run_request engine ~cache ~verify_plans:true req in
  Alcotest.(check bool) "second checked run succeeds" true (Request.answered second.Request.result <> None);
  Alcotest.(check bool) "second checked run hits the memoized plan" true
    ((Cache.plan_stats cache).Cache.hits > mid.Cache.hits)

let test_verify_plans_bypasses_cache () =
  let engine = Lazy.force paper_engine in
  let cache = Engine.cache engine in
  let req = Request.make Engine.Full_top_k (Query.q1 engine.Engine.ctx.Context.catalog) in
  ignore (Engine.run_request engine ~cache req);
  let verified = Engine.run_request engine ~cache ~verify_plans:true req in
  Alcotest.(check string) "verification never answers from the cache" "uncached"
    (Request.cache_status_name verified.Request.cache);
  Alcotest.(check bool) "verified run still succeeds" true
    (Request.answered verified.Request.result <> None)

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
      let warm_stats = Cache.result_stats cache in
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

let suites =
  [
    ( "cache.lru",
      [
        Alcotest.test_case "hit and miss accounting" `Quick test_hit_miss;
        Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
        Alcotest.test_case "same-stamp racing insert kept" `Quick test_same_stamp_insert_kept;
        Alcotest.test_case "plan tier round-trip" `Quick test_plan_tier;
      ] );
    ( "cache.epoch",
      [
        Alcotest.test_case "generation bumps only on mutation" `Quick
          test_generation_bumps_only_on_mutation;
        Alcotest.test_case "stale entry is a miss" `Quick test_stale_entry_is_a_miss;
        Alcotest.test_case "mid-batch re-registration serves no stale result" `Quick
          test_no_stale_result_served_after_reregistration;
        Alcotest.test_case "failures are not memoized" `Quick test_failures_not_memoized;
        Alcotest.test_case "checked plan-tier hit catches corruption" `Quick
          test_checked_plan_hit_catches_corruption;
        Alcotest.test_case "checked runs keep the plan tier live" `Quick
          test_checked_runs_use_plan_tier;
        Alcotest.test_case "verify_plans bypasses the result tier" `Quick
          test_verify_plans_bypasses_cache;
      ] );
    ( "cache.equality",
      [ QCheck_alcotest.to_alcotest prop_cold_warm_uncached_identical ] );
    ( "cache.concurrent",
      [
        Alcotest.test_case "four domains share one cache" `Quick
          test_concurrent_hits_across_domains;
      ] );
  ]
