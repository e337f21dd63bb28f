(* The online serving tier: equality with a sequential
   [Engine.run_request] loop on the paper database (jobs 1 and 4, cold and
   warm cache) and jobs-invariance on a generated instance (all nine
   methods), per-query counter isolation, error containment — one poisoned query
   must not take down the rest of the batch — and the pool's queueing of
   concurrent batch submitters.

   Concurrency-sensitive tests pass an explicit pool so they exercise
   real multi-domain serving even on single-core machines (Serve.exec's
   [jobs] field is capped at the core count; [pool] is not). *)

open Topo_core
module Pool = Topo_util.Pool
module Counters = Topo_sql.Iterator.Counters
module Trace = Topo_obs.Trace

let paper_engine =
  lazy
    (Engine.build
       (Biozon.Paper_db.catalog ())
       ~pairs:[ ("Protein", "DNA") ]
       ~pruning_threshold:50 ())

(* All nine methods over three queries with rotating ranking schemes: the
   small serving analogue of the bench's mixed workload. *)
let paper_workload (engine : Engine.t) =
  let catalog = engine.Engine.ctx.Context.catalog in
  let queries =
    [
      Query.q1 catalog;
      Query.make
        (Query.keyword catalog "Protein" ~col:"desc" ~kw:"enzyme")
        (Query.endpoint catalog "DNA");
      Query.make (Query.endpoint catalog "Protein") (Query.endpoint catalog "DNA");
    ]
  in
  let schemes = [ Ranking.Freq; Ranking.Rare; Ranking.Domain ] in
  List.concat_map
    (fun method_ ->
      List.mapi
        (fun i q -> Request.make ~scheme:(List.nth schemes (i mod 3)) ~k:10 method_ q)
        queries)
    Engine.all_methods

let serve_forced ~jobs ?(traces = false) ?cache engine requests =
  Pool.with_pool ~jobs (fun pool ->
      let r = Serve.exec (Serve.config ~pool ~traces ?cache ()) engine requests in
      (r.Serve.outcomes, r.Serve.stats))

(* --- sequential vs concurrent ------------------------------------------- *)

let test_paper_serve_matches_sequential () =
  let engine = Lazy.force paper_engine in
  let requests = paper_workload engine in
  (* ground truth: a plain sequential Engine.run_request loop, no serving
     tier, no cache *)
  let expected = List.map (Engine.run_request engine) requests in
  List.iter (fun o -> ignore (Request.get_done o)) expected;
  let a = Engine.cache engine and b = Engine.cache engine in
  List.iter
    (fun (label, jobs, cache) ->
      let outcomes, stats = serve_forced ~jobs ?cache engine requests in
      Alcotest.(check (pair int int))
        (label ^ ": all served, no errors")
        (List.length requests, 0)
        (stats.Serve.queries, stats.Serve.errors);
      Alcotest.(check string)
        (label ^ ": fingerprint = sequential loop")
        (Serve.fingerprint expected) (Serve.fingerprint outcomes))
    [
      ("jobs=1", 1, None);
      ("jobs=4", 4, None);
      ("jobs=1 cold", 1, Some a);
      ("jobs=4 warm", 4, Some a);
      ("jobs=4 cold", 4, Some b);
      ("jobs=1 warm", 1, Some b);
    ]

let prop_generated_serve_jobs_identical =
  QCheck.Test.make ~name:"generated instance: serve fingerprint invariant across jobs" ~count:3
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
        List.map
          (fun method_ ->
            Request.make ~k:10 method_
              (Query.make (Query.endpoint catalog "Protein") (Query.endpoint catalog "DNA")))
          Engine.all_methods
      in
      let fp jobs = Serve.fingerprint (fst (serve_forced ~jobs engine requests)) in
      fp 1 = fp 4)

(* --- per-query counter isolation ----------------------------------------- *)

let test_counter_isolation () =
  let engine = Lazy.force paper_engine in
  let requests = paper_workload engine in
  (* sentinel: serving must not disturb the caller's counter scope *)
  let outcomes, outer =
    Counters.with_scope (fun () ->
        Counters.add_tuples 7;
        fst (serve_forced ~jobs:4 engine requests))
  in
  Alcotest.(check (triple int int int))
    "surrounding scope untouched by the batch" (7, 0, 0)
    (outer.Counters.tuples, outer.Counters.index_probes, outer.Counters.rows_scanned);
  (* each outcome's counters equal the query's solo cost — nothing leaked
     in from neighbours that ran concurrently on other domains *)
  List.iteri
    (fun i (o : Request.outcome) ->
      let solo = (Engine.run_request engine o.Request.request).Request.counters in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "query %d counters = solo run" i)
        (solo.Counters.tuples, solo.Counters.index_probes, solo.Counters.rows_scanned)
        ( o.Request.counters.Counters.tuples,
          o.Request.counters.Counters.index_probes,
          o.Request.counters.Counters.rows_scanned ))
    outcomes

let test_with_scope_isolation () =
  let (result, inner), outer =
    Counters.with_scope (fun () ->
        Counters.add_tuples 5 (* sentinel *);
        let scoped =
          Counters.with_scope (fun () ->
              Counters.add_tuples 3;
              "done")
        in
        (* a raising inner scope still restores this one *)
        (try
           ignore
             (Counters.with_scope (fun () ->
                  Counters.add_scanned 11;
                  failwith "boom"))
         with Failure _ -> ());
        scoped)
  in
  Alcotest.(check string) "result threaded through" "done" result;
  Alcotest.(check (triple int int int))
    "inner snapshot starts at zero, sees only inner work" (3, 0, 0)
    (inner.Counters.tuples, inner.Counters.index_probes, inner.Counters.rows_scanned);
  Alcotest.(check (triple int int int))
    "outer scope never saw inner work" (5, 0, 0)
    (outer.Counters.tuples, outer.Counters.index_probes, outer.Counters.rows_scanned)

(* --- error containment ---------------------------------------------------- *)

let test_error_isolated () =
  let engine = Lazy.force paper_engine in
  let catalog = engine.Engine.ctx.Context.catalog in
  (* Protein-Protein was never built: the engine answers Unknown_pair *)
  let poison =
    Request.make Engine.Full_top
      (Query.make (Query.endpoint catalog "Protein") (Query.endpoint catalog "Protein"))
  in
  let good = paper_workload engine in
  let requests = List.concat [ [ List.hd good ]; [ poison ]; List.tl good ] in
  let outcomes, stats = serve_forced ~jobs:4 engine requests in
  Alcotest.(check int) "exactly one error" 1 stats.Serve.errors;
  Alcotest.(check int) "whole batch completed" (List.length requests) stats.Serve.queries;
  (match (List.nth outcomes 1).Request.result with
  | Request.Failed f ->
      Alcotest.(check bool)
        "poison query names the held pairs" true
        (f = Request.Unknown_pair { t1 = "Protein"; t2 = "Protein"; held = [ ("Protein", "DNA") ] })
  | other -> Alcotest.failf "poison query unexpectedly %s" (Request.outcome_result_name other));
  (* the survivors answer exactly as they would without the poison query *)
  let clean, _ = serve_forced ~jobs:1 engine good in
  let survivors = List.filteri (fun i _ -> i <> 1) outcomes in
  Alcotest.(check string) "rest of the batch unaffected" (Serve.fingerprint clean)
    (Serve.fingerprint survivors)

(* --- traces ---------------------------------------------------------------- *)

let test_traces_attached () =
  let engine = Lazy.force paper_engine in
  let requests = [ Request.make Engine.Fast_top (Query.q1 engine.Engine.ctx.Context.catalog) ] in
  let with_traces, _ = serve_forced ~jobs:2 ~traces:true engine requests in
  (match (List.hd with_traces).Request.trace with
  | Some tr -> Alcotest.(check bool) "trace has spans" true (Trace.span_count tr > 0)
  | None -> Alcotest.fail "traces requested but absent");
  let without, _ = serve_forced ~jobs:2 engine requests in
  Alcotest.(check bool) "no trace unless requested" true ((List.hd without).Request.trace = None)

(* --- pool: concurrent batch submitters ------------------------------------ *)

let test_pool_queues_second_batch () =
  (* Two coordinator domains race parallel_map on one shared pool.  Before
     the serve tier this was an invalid_arg; now the second submitter
     waits for the pool to go idle and both batches complete. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let submit label =
        Domain.spawn (fun () ->
            List.init 5 (fun round ->
                Pool.parallel_map pool (Array.init 40 Fun.id) ~f:(fun i ->
                    Sys.opaque_identity (ignore (Array.init (i mod 13 * 50) Fun.id));
                    (label * 1000) + (round * 100) + i)))
      in
      let a = submit 1 and b = submit 2 in
      let check label rounds =
        List.iteri
          (fun round out ->
            Alcotest.(check (array int))
              (Printf.sprintf "submitter %d round %d" label round)
              (Array.init 40 (fun i -> (label * 1000) + (round * 100) + i))
              out)
          rounds
      in
      check 1 (Domain.join a);
      check 2 (Domain.join b))

let test_serve_batches_queue_on_shared_pool () =
  let engine = Lazy.force paper_engine in
  let requests = paper_workload engine in
  let expected = Serve.fingerprint (fst (serve_forced ~jobs:1 engine requests)) in
  Pool.with_pool ~jobs:2 (fun pool ->
      let serve () =
        Domain.spawn (fun () -> (Serve.exec (Serve.config ~pool ()) engine requests).Serve.outcomes)
      in
      let a = serve () and b = serve () in
      Alcotest.(check string) "first concurrent serve deterministic" expected
        (Serve.fingerprint (Domain.join a));
      Alcotest.(check string) "second concurrent serve deterministic" expected
        (Serve.fingerprint (Domain.join b)))

(* Workload lines: defaults, keywords, and every malformed field,
   including a k below 1, which is reported rather than evaluated. *)
let test_workload_line () =
  let cat = Biozon.Paper_db.catalog () in
  let parse = Request.of_workload_line cat ~t1:"Protein" ~t2:"DNA" in
  let malformed line =
    match parse line with `Malformed msg -> msg | `Blank | `Request _ -> Alcotest.failf "%S parsed" line
  in
  (match parse "fast-top-k-opt; rare; 5; enzyme  # comment" with
  | `Request r ->
      Alcotest.(check bool) "method" true (r.Request.method_ = Engine.Fast_top_k_opt);
      Alcotest.(check bool) "scheme" true (r.Request.scheme = Ranking.Rare);
      Alcotest.(check int) "k" 5 r.Request.k;
      Alcotest.(check bool) "keyword on E1" true (r.Request.query.Query.e1.Query.pred <> None);
      Alcotest.(check bool) "no keyword on E2" true (r.Request.query.Query.e2.Query.pred = None)
  | `Blank | `Malformed _ -> Alcotest.fail "valid line rejected");
  (match parse "Full-Top" with
  | `Request r ->
      Alcotest.(check int) "default k" 10 r.Request.k;
      Alcotest.(check bool) "default scheme" true (r.Request.scheme = Ranking.Freq)
  | `Blank | `Malformed _ -> Alcotest.fail "method-only line rejected");
  Alcotest.(check bool) "comment line is blank" true (parse "  # nothing" = `Blank);
  Alcotest.(check string) "unknown method" "unknown method \"Slow-Top\"" (malformed "Slow-Top");
  Alcotest.(check string) "unknown scheme" "unknown scheme often" (malformed "Full-Top-k; often");
  Alcotest.(check string) "non-integer k" "bad k ten" (malformed "Full-Top-k; freq; ten");
  Alcotest.(check string) "negative k" "bad k -1 (must be >= 1)" (malformed "Fast-Top-k-Opt; freq; -1");
  Alcotest.(check string) "zero k" "bad k 0 (must be >= 1)" (malformed "Full-Top-k; freq; 0")

let suites =
  [
    ( "serve.equality",
      [
        Alcotest.test_case "paper db: concurrent = sequential" `Quick
          test_paper_serve_matches_sequential;
        QCheck_alcotest.to_alcotest prop_generated_serve_jobs_identical;
      ] );
    ( "serve.isolation",
      [
        Alcotest.test_case "per-query counter isolation" `Quick test_counter_isolation;
        Alcotest.test_case "with_scope isolates and restores" `Quick test_with_scope_isolation;
        Alcotest.test_case "one failing query spares the batch" `Quick test_error_isolated;
        Alcotest.test_case "traces attach per query on demand" `Quick test_traces_attached;
      ] );
    ( "serve.pool",
      [
        Alcotest.test_case "second batch queues, not invalid_arg" `Quick
          test_pool_queues_second_batch;
        Alcotest.test_case "concurrent serve batches on one pool" `Quick
          test_serve_batches_queue_on_shared_pool;
      ] );
    ("serve.workload", [ Alcotest.test_case "workload line" `Quick test_workload_line ]);
  ]
