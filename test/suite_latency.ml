(* The open-loop latency machinery: Hdr's exact-count contract, deadline
   rejection before any cache or counter activity, admission-control
   rejection under a zero-capacity queue, open mode refusing a pool it
   would not use, the determinism of [Ticks]
   deadline truncation (same budget => same Partial prefix, a subset of
   the full answer), and the open-loop accounting invariants
   (admitted + rejected_overload = offered;
   completed + partial + failed + expired = admitted). *)

open Topo_core
module Hdr = Topo_util.Hdr
module Counters = Topo_sql.Iterator.Counters

let paper_engine =
  lazy
    (Engine.build
       (Biozon.Paper_db.catalog ())
       ~pairs:[ ("Protein", "DNA") ]
       ~pruning_threshold:50 ())

let q1 engine = Query.q1 (engine : Engine.t).Engine.ctx.Context.catalog

(* --- Hdr: exact counts, bounded quantile error ---------------------------- *)

let test_hdr_exact_small () =
  let h = Hdr.create () in
  Alcotest.(check int) "empty count" 0 (Hdr.count h);
  Alcotest.(check int) "empty quantile" 0 (Hdr.quantile h 0.5);
  for v = 1 to 100 do
    Hdr.record h v
  done;
  Alcotest.(check int) "count is exact" 100 (Hdr.count h);
  Alcotest.(check int) "min is exact" 1 (Hdr.min_value h);
  Alcotest.(check int) "max is exact" 100 (Hdr.max_value h);
  Alcotest.(check (float 1e-9)) "mean is exact" 50.5 (Hdr.mean h);
  (* values below 128 land in width-1 buckets: quantiles are exact *)
  Alcotest.(check int) "p50 exact below the sub-bucket limit" 50 (Hdr.quantile h 0.50);
  Alcotest.(check int) "p0 = min" 1 (Hdr.quantile h 0.0);
  Alcotest.(check int) "p100 = max" 100 (Hdr.quantile h 1.0);
  Alcotest.(check int) "bucket counts sum to count" 100
    (List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Hdr.buckets h));
  Hdr.record h (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Hdr.min_value h)

let test_hdr_merge () =
  let a = Hdr.create () and b = Hdr.create () in
  List.iter (Hdr.record a) [ 10; 20; 1_000_000 ];
  List.iter (Hdr.record b) [ 5; 3_000_000 ];
  Hdr.merge ~into:a b;
  Alcotest.(check int) "merged count" 5 (Hdr.count a);
  Alcotest.(check int) "merged min" 5 (Hdr.min_value a);
  Alcotest.(check int) "merged max" 3_000_000 (Hdr.max_value a);
  Alcotest.(check (float 1e-6)) "merged mean"
    ((10.0 +. 20.0 +. 1_000_000.0 +. 5.0 +. 3_000_000.0) /. 5.0)
    (Hdr.mean a);
  Alcotest.(check int) "src untouched" 2 (Hdr.count b)

let prop_hdr_quantile_error =
  QCheck.Test.make ~name:"hdr: count exact, quantile within 1/64 relative error" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 10_000_000))
    (fun values ->
      let h = Hdr.create () in
      List.iter (Hdr.record h) values;
      let sorted = List.sort compare values in
      let n = List.length sorted in
      let exact q =
        let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
        List.nth sorted (rank - 1)
      in
      Hdr.count h = n
      && Hdr.min_value h = List.hd sorted
      && Hdr.max_value h = List.nth sorted (n - 1)
      && List.for_all
           (fun q ->
             let e = exact q and got = Hdr.quantile h q in
             abs (got - e) <= 1 + (e / 32) (* midpoint of a 1/64-wide bucket *))
           [ 0.0; 0.5; 0.95; 0.99; 1.0 ])

(* --- deadline rejection is observably free -------------------------------- *)

let test_expired_rejected_before_cache () =
  let engine = Lazy.force paper_engine in
  let cache = Engine.cache engine in
  (* Ticks 0 is expired at admission, with no wall-clock flakiness *)
  let req = Request.make ~deadline:(Budget.Ticks 0) Engine.Fast_top_k (q1 engine) in
  let o, outer =
    Counters.with_scope (fun () ->
        Counters.add_tuples 7 (* sentinel *);
        Engine.run_request engine ~cache req)
  in
  (match o.Request.result with
  | Request.Rejected Request.Expired -> ()
  | other -> Alcotest.failf "expected rejected-expired, got %s" (Request.outcome_result_name other));
  Alcotest.(check (triple int int int))
    "rejection did no operator work" (0, 0, 0)
    (o.Request.counters.Counters.tuples, o.Request.counters.Counters.index_probes,
     o.Request.counters.Counters.rows_scanned);
  Alcotest.(check bool) "rejection bypasses the cache" true (o.Request.cache = Request.Uncached);
  let s = (Cache.totals cache).Cache.results in
  Alcotest.(check (pair int int)) "no cache lookup, no insertion" (0, 0)
    (s.Cache.hits + s.Cache.misses, s.Cache.insertions);
  Alcotest.(check (triple int int int))
    "surrounding counter scope untouched" (7, 0, 0)
    (outer.Counters.tuples, outer.Counters.index_probes, outer.Counters.rows_scanned);
  (* a Wall deadline in the past behaves identically *)
  let req = Request.make ~deadline:(Budget.Wall 1.0) Engine.Fast_top_k (q1 engine) in
  match (Engine.run_request engine req).Request.result with
  | Request.Rejected Request.Expired -> ()
  | other -> Alcotest.failf "expected rejected-expired, got %s" (Request.outcome_result_name other)

(* --- admission control ----------------------------------------------------- *)

let test_zero_capacity_rejects_everything () =
  let engine = Lazy.force paper_engine in
  let cache = Engine.cache engine in
  let requests = List.init 5 (fun _ -> Request.make Engine.Fast_top_k (q1 engine)) in
  let r =
    Serve.exec
      (Serve.config ~jobs:2 ~cache
         ~mode:
           (Serve.Open
              (Serve.open_config ~max_queue:0
                 ~schedule:(fun i -> float_of_int i *. 0.001)
                 ()))
         ())
      engine requests
  in
  let timed = Option.get r.Serve.timed and stats = Option.get r.Serve.open_stats in
  Alcotest.(check int) "all offered" 5 stats.Serve.offered;
  Alcotest.(check int) "all rejected" 5 stats.Serve.rejected_overload;
  Alcotest.(check int) "none admitted" 0 stats.Serve.admitted;
  List.iter
    (fun (t : Serve.timed) ->
      match t.Serve.timed_outcome.Request.result with
      | Request.Rejected Request.Overloaded -> ()
      | other ->
          Alcotest.failf "expected rejected-overloaded, got %s"
            (Request.outcome_result_name other))
    timed;
  let s = (Cache.totals cache).Cache.results in
  Alcotest.(check (pair int int)) "rejections never touch the cache" (0, 0)
    (s.Cache.hits + s.Cache.misses, s.Cache.insertions)

(* --- Ticks truncation is deterministic ------------------------------------ *)

let full_ranked engine method_ =
  match (Engine.run_request engine (Request.make ~k:10 method_ (q1 engine))).Request.result with
  | Request.Done r -> r.Request.ranked
  | other -> Alcotest.failf "full run was %s" (Request.outcome_result_name other)

let prop_ticks_partial_deterministic =
  QCheck.Test.make ~name:"ticks budget: same budget => same outcome, prefix of the full answer"
    ~count:8
    QCheck.(pair (int_range 1 40) (QCheck.make (QCheck.Gen.oneofl [ Engine.Full_top_k_et; Engine.Fast_top_k_et ])))
    (fun (ticks, method_) ->
      let engine = Lazy.force paper_engine in
      let req = Request.make ~k:10 ~deadline:(Budget.Ticks ticks) method_ (q1 engine) in
      let once () = Engine.run_request engine req in
      let a = once () and b = once () in
      let fp o = Serve.fingerprint [ o ] in
      fp a = fp b
      &&
      match a.Request.result with
      | Request.Done r ->
          (* budget never tripped: the full answer *)
          r.Request.ranked = full_ranked engine method_
      | Request.Partial r ->
          (* a deadline-shaped prefix: every entry is part of the full
             answer (subset by TID — ranking may reorder equal scores) *)
          let full = List.map fst (full_ranked engine method_) in
          List.for_all (fun (tid, _) -> List.mem tid full) r.Request.ranked
      | _ -> false)

(* --- open-loop accounting -------------------------------------------------- *)

let prop_open_accounting =
  QCheck.Test.make ~name:"open loop: every offered request is accounted exactly once" ~count:4
    QCheck.(pair (int_range 1 64) (int_range 0 4))
    (fun (seed, max_queue) ->
      let engine = Lazy.force paper_engine in
      let rng = Topo_util.Prng.create seed in
      let methods = [| Engine.Fast_top_k; Engine.Full_top_k; Engine.Fast_top_k_et |] in
      let n = 12 + Topo_util.Prng.int rng 12 in
      let requests =
        List.init n (fun _ -> Request.make ~k:10 (Topo_util.Prng.choose rng methods) (q1 engine))
      in
      let r =
        Serve.exec
          (Serve.config ~jobs:2
             ~mode:
               (Serve.Open
                  (Serve.open_config ~max_queue ~deadline_s:5.0
                     ~schedule:(fun i -> float_of_int i *. 0.0005)
                     ()))
             ())
          engine requests
      in
      let timed = Option.get r.Serve.timed and stats = Option.get r.Serve.open_stats in
      List.length timed = n
      && stats.Serve.offered = n
      && stats.Serve.admitted + stats.Serve.rejected_overload = n
      && stats.Serve.completed + stats.Serve.partial + stats.Serve.failed + stats.Serve.expired
         = stats.Serve.admitted
      && stats.Serve.failed = 0
      && List.for_all (fun (t : Serve.timed) -> t.Serve.latency_s >= 0.0) timed)

(* A pool only drives closed mode; open mode spawns its own workers, so a
   pool there is a configuration error, not something to ignore. *)
let test_open_mode_rejects_pool () =
  let engine = Lazy.force paper_engine in
  let requests = [ Request.make Engine.Fast_top_k (q1 engine) ] in
  Topo_util.Pool.with_pool ~jobs:1 (fun pool ->
      let cfg = Serve.config ~pool ~mode:(Serve.Open (Serve.open_config ())) () in
      match Serve.exec cfg engine requests with
      | _ -> Alcotest.fail "open mode with a pool was accepted"
      | exception Invalid_argument msg ->
          let mentions field =
            let n = String.length field in
            let rec at i =
              i + n <= String.length msg && (String.sub msg i n = field || at (i + 1))
            in
            at 0
          in
          Alcotest.(check (pair bool bool))
            "message names config.pool and config.mode" (true, true)
            (mentions "config.pool", mentions "config.mode"))

let suites =
  [
    ( "latency.hdr",
      [
        Alcotest.test_case "exact counts, exact small values" `Quick test_hdr_exact_small;
        Alcotest.test_case "merge combines exactly" `Quick test_hdr_merge;
        QCheck_alcotest.to_alcotest prop_hdr_quantile_error;
      ] );
    ( "latency.deadline",
      [
        Alcotest.test_case "expired requests are observably free" `Quick
          test_expired_rejected_before_cache;
        QCheck_alcotest.to_alcotest prop_ticks_partial_deterministic;
      ] );
    ( "latency.open_loop",
      [
        Alcotest.test_case "zero-capacity queue rejects everything" `Quick
          test_zero_capacity_rejects_everything;
        Alcotest.test_case "open mode rejects a pool" `Quick test_open_mode_rejects_pool;
        QCheck_alcotest.to_alcotest prop_open_accounting;
      ] );
  ]
