(* Integration matrix: method agreement and structural invariants across
   random generator seeds, path limits and pruning settings — the
   cross-validation net for the whole pipeline. *)

open Topo_core
module Value = Topo_sql.Value

let small_params seed =
  Biozon.Generator.scale 0.12 { Biozon.Generator.default with Biozon.Generator.seed = seed }

let engine_for ?(l = 3) ?(pruning_threshold = 10) ?(exclude_weak = false) ?min_reliability seed =
  let cat = Biozon.Generator.generate (small_params seed) in
  ( cat,
    Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~l ~pruning_threshold ~exclude_weak ?min_reliability
      () )

let queries cat =
  [
    Query.make
      (Query.keyword cat "Protein" ~col:"desc" ~kw:"enzyme")
      (Query.equals cat "DNA" ~col:"type" ~value:(Value.Str "mRNA"));
    Query.make (Query.endpoint cat "Protein") (Query.endpoint cat "DNA");
    Query.make
      (Query.keyword cat "Protein" ~col:"desc" ~kw:"kinase")
      (Query.equals cat "DNA" ~col:"type" ~value:(Value.Str "EST"));
  ]

let check_agreement label (cat, engine) =
  List.iteri
    (fun qi q ->
      let tids m =
        List.map fst (Request.get_done (Engine.run_request engine (Request.make m q))).Request.ranked
      in
      let full = tids Engine.Full_top in
      Alcotest.(check (list int)) (Printf.sprintf "%s q%d fast=full" label qi) full (tids Engine.Fast_top);
      Alcotest.(check (list int)) (Printf.sprintf "%s q%d sql=full" label qi) full (tids Engine.Sql))
    (queries cat)

(* A build whose path filter drops schema paths: serving the nine-method
   batch on two domains must leave the registry and the derived tables as
   built, and SQL must still agree with Full-Top (its recomputation may
   only walk the paths the build kept). *)
let check_filtered_build label (cat, engine) =
  let count = Topology.count engine.Engine.ctx.Context.registry in
  let fingerprint = Engine.fingerprint engine in
  let requests =
    List.concat_map (fun q -> List.map (fun m -> Request.make m q) Engine.all_methods) (queries cat)
  in
  Topo_util.Pool.with_pool ~jobs:2 (fun pool ->
      ignore (Serve.exec (Serve.config ~pool ()) engine requests));
  Alcotest.(check int) (label ^ ": registry unchanged by serving") count
    (Topology.count engine.Engine.ctx.Context.registry);
  Alcotest.(check string) (label ^ ": fingerprint unchanged by serving") fingerprint
    (Engine.fingerprint engine);
  check_agreement label (cat, engine)

let test_method_agreement_across_seeds () =
  List.iter (fun seed -> check_agreement (Printf.sprintf "seed %d" seed) (engine_for seed)) [ 1; 2; 3 ];
  List.iter
    (fun seed ->
      check_filtered_build
        (Printf.sprintf "seed %d l=4 exclude_weak" seed)
        (engine_for ~l:4 ~exclude_weak:true seed);
      check_filtered_build
        (Printf.sprintf "seed %d min_reliability 0.6" seed)
        (engine_for ~min_reliability:0.6 seed))
    [ 13; 17 ]

let test_topk_scores_agree_across_seeds () =
  List.iter
    (fun seed ->
      let cat, engine = engine_for seed in
      let q = List.hd (queries cat) in
      List.iter
        (fun scheme ->
          let scores m =
            List.map
              (fun (_, s) -> Option.get s)
              (Request.get_done
                 (Engine.run_request engine (Request.make ~scheme ~k:5 m q)))
                .Request.ranked
            |> List.sort compare
          in
          let reference = scores Engine.Full_top_k in
          List.iter
            (fun m ->
              Alcotest.(check (list (float 1e-9)))
                (Printf.sprintf "seed %d %s %s" seed (Engine.method_name m) (Ranking.name scheme))
                reference (scores m))
            [ Engine.Fast_top_k; Engine.Full_top_k_et; Engine.Fast_top_k_et ])
        Ranking.all)
    [ 4; 5 ]

let test_pruning_threshold_invariance () =
  (* The query answer must not depend on the pruning threshold. *)
  let cat0, e0 = engine_for ~pruning_threshold:0 7 in
  let _, e_mid = engine_for ~pruning_threshold:20 7 in
  let _, e_inf = engine_for ~pruning_threshold:max_int 7 in
  List.iteri
    (fun qi q ->
      let tids e =
        List.map fst
          (Request.get_done (Engine.run_request e (Request.make Engine.Fast_top q))).Request.ranked
      in
      let reference = tids e_inf in
      Alcotest.(check (list int)) (Printf.sprintf "q%d threshold 0" qi) reference (tids e0);
      Alcotest.(check (list int)) (Printf.sprintf "q%d threshold 20" qi) reference (tids e_mid))
    (queries cat0)

let test_l_monotonicity () =
  (* Raising l can only reveal richer structure: every pair related at
     l=2 stays related at l=3 (possibly by a different, larger topology). *)
  let _, e2 = engine_for ~l:2 11 in
  let _, e3 = engine_for ~l:3 11 in
  let pairs e =
    let store = Engine.store e ~t1:"Protein" ~t2:"DNA" in
    List.map (fun (a, b, _) -> (a, b)) (Suite_core.alltops_rows e store) |> List.sort_uniq compare
  in
  let p2 = pairs e2 and p3 = pairs e3 in
  List.iter
    (fun pair -> Alcotest.(check bool) "pair persists" true (List.mem pair p3))
    p2;
  Alcotest.(check bool) "l=3 finds more pairs" true (List.length p3 >= List.length p2)

let test_exclude_weak_removes_weak_classes () =
  (* Every sweep row's class keys are a decomposition of its topologies. *)
  let _, e = engine_for ~l:4 13 ~exclude_weak:true in
  let store = Engine.store e ~t1:"Protein" ~t2:"DNA" in
  Hashtbl.iter
    (fun tid _ ->
      List.iter
        (List.iter (fun key ->
             Alcotest.(check bool) "no weak class key" false (Weak.is_weak_class_key key)))
        (Store.decompositions store tid))
    store.Store.frequencies

let test_rebuild_same_catalog_is_idempotent () =
  let cat = Biozon.Generator.generate (small_params 17) in
  let e1 = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:10 () in
  let rows1 =
    Topo_sql.Table.row_count
      (Topo_sql.Catalog.find cat (Engine.store e1 ~t1:"Protein" ~t2:"DNA").Store.alltops)
  in
  (* Rebuilding replaces the derived tables in place. *)
  let e2 = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:10 () in
  let rows2 =
    Topo_sql.Table.row_count
      (Topo_sql.Catalog.find cat (Engine.store e2 ~t1:"Protein" ~t2:"DNA").Store.alltops)
  in
  Alcotest.(check int) "same alltops rows" rows1 rows2

let test_alltops_rows_match_pair_recomputation () =
  (* Sampled pairs from the sweep agree with direct per-pair computation
     (Definitions 1-3 evaluated both ways). *)
  let _, engine = engine_for 19 in
  let ctx = engine.Engine.ctx in
  let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
  let rows = Array.of_list (Suite_core.alltops_rows engine store) in
  let prng = Topo_util.Prng.create 555 in
  for _ = 1 to 25 do
    let a, b, tids = rows.(Topo_util.Prng.int prng (Array.length rows)) in
    let recomputed = Suite_core.recompute_row ~caps:ctx.Context.caps ctx ~a ~b in
    Alcotest.(check (list int)) (Printf.sprintf "(%d,%d)" a b) tids recomputed.Compute.tids
  done

let test_frequencies_sum_to_alltops_rows () =
  let _, engine = engine_for 23 in
  let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
  let cat = engine.Engine.ctx.Context.catalog in
  let freq_sum = Hashtbl.fold (fun _ f acc -> acc + f) store.Store.frequencies 0 in
  Alcotest.(check int) "sum freq = |AllTops|" (Topo_sql.Table.row_count (Topo_sql.Catalog.find cat store.Store.alltops)) freq_sum

let test_lefttops_plus_pruned_covers_alltops () =
  let _, engine = engine_for 29 in
  let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
  let cat = engine.Engine.ctx.Context.catalog in
  let count name = Topo_sql.Table.row_count (Topo_sql.Catalog.find cat name) in
  let pruned_rows =
    List.fold_left (fun acc tid -> acc + Store.frequency store tid) 0 store.Store.pruned
  in
  Alcotest.(check int) "partition" (count store.Store.alltops)
    (count store.Store.lefttops + pruned_rows)

let prop_describe_total =
  (* describe never raises on any registered topology. *)
  QCheck.Test.make ~name:"describe total on all topologies" ~count:1
    QCheck.unit
    (fun () ->
      let _, engine = engine_for 31 in
      let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
      Hashtbl.fold
        (fun tid _ ok -> ok && String.length (Engine.describe engine tid) > 0)
        store.Store.frequencies true)

let suites =
  [
    ( "matrix.agreement",
      [
        Alcotest.test_case "methods agree across seeds" `Slow test_method_agreement_across_seeds;
        Alcotest.test_case "top-k scores agree across seeds" `Slow test_topk_scores_agree_across_seeds;
        Alcotest.test_case "pruning threshold invariance" `Quick test_pruning_threshold_invariance;
        Alcotest.test_case "l monotonicity" `Quick test_l_monotonicity;
      ] );
    ( "matrix.invariants",
      [
        Alcotest.test_case "exclude_weak" `Quick test_exclude_weak_removes_weak_classes;
        Alcotest.test_case "rebuild idempotent" `Quick test_rebuild_same_catalog_is_idempotent;
        Alcotest.test_case "sweep matches per-pair recompute" `Quick test_alltops_rows_match_pair_recomputation;
        Alcotest.test_case "freq sums to AllTops" `Quick test_frequencies_sum_to_alltops_rows;
        Alcotest.test_case "LeftTops + pruned = AllTops" `Quick test_lefttops_plus_pruned_covers_alltops;
        QCheck_alcotest.to_alcotest prop_describe_total;
      ] );
  ]
