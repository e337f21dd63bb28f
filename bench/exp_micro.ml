(* Bechamel micro-benchmarks: one Test.make per table/figure family, timing
   the kernel operation each experiment leans on, over a small fixed
   database so numbers are stable. *)

open Bechamel
open Toolkit

let small_engine =
  lazy
    (let params =
       Biozon.Generator.scale 0.15
         { Biozon.Generator.default with Biozon.Generator.seed = 7 }
     in
     let cat = Biozon.Generator.generate params in
     Topo_core.Engine.build cat
       ~pairs:[ ("Protein", "DNA"); ("Protein", "Interaction") ]
       ~pruning_threshold:10 ())

(* A 52-group early-termination spec (k = 20) over two dimensions: group
   [tid] has 1 + (7 tid mod 12) fact rows, each joining one row of each
   dimension; the predicates keep a quarter and a third of them. *)
let et_pricing_spec () =
  let open Topo_sql in
  let cat = Catalog.create () in
  let col name ty = { Schema.name; ty } in
  let table name cols = Catalog.create_table cat ~name ~schema:(Schema.make cols) in
  let g = table "G" [ col "TID" Schema.TInt; col "score" Schema.TFloat ] ~primary_key:"TID" () in
  let f = table "F" [ col "TID" Schema.TInt; col "E1" Schema.TInt; col "E2" Schema.TInt ] () in
  let d1 = table "D1" [ col "ID" Schema.TInt; col "v" Schema.TInt ] ~primary_key:"ID" () in
  let d2 = table "D2" [ col "ID" Schema.TInt; col "v" Schema.TInt ] ~primary_key:"ID" () in
  let next = ref 0 in
  for tid = 1 to 52 do
    Table.insert_values g [ Value.Int tid; Value.Float (float_of_int (tid * 10)) ];
    for _ = 0 to (7 * tid) mod 12 do
      incr next;
      let e = !next in
      Table.insert_values f [ Value.Int tid; Value.Int e; Value.Int e ];
      Table.insert_values d1 [ Value.Int e; Value.Int (e mod 4) ];
      Table.insert_values d2 [ Value.Int e; Value.Int (e mod 3) ]
    done
  done;
  let dim table alias fact_col =
    {
      Optimizer.dim_table = table;
      dim_alias = alias;
      dim_key = "ID";
      fact_col;
      dim_pred = Some (Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (Value.Int 0)));
    }
  in
  ( cat,
    {
      Optimizer.group_table = "G";
      group_key = "TID";
      score_col = "score";
      group_pred = None;
      fact_table = "F";
      fact_group_col = "TID";
      dims = [ dim "D1" "A" "E1"; dim "D2" "B" "E2" ];
      k = 20;
      group_cards = None;
    } )

let tests () =
  let engine = Lazy.force small_engine in
  let ctx = engine.Topo_core.Engine.ctx in
  let cat = ctx.Topo_core.Context.catalog in
  let schema = Biozon.Bschema.schema_graph () in
  let q_pd = Topo_core.Query.q1 cat in
  let q_pi =
    Topo_core.Query.make
      (Topo_core.Query.keyword cat "Protein" ~col:"desc" ~kw:"enzyme")
      (Topo_core.Query.keyword cat "Interaction" ~col:"desc" ~kw:"binding")
  in
  let protein = Topo_sql.Catalog.find cat "Protein" in
  let desc_contains kw =
    Topo_sql.Expr.Contains
      (Topo_sql.Expr.Col (Topo_sql.Schema.index_of (Topo_sql.Table.schema protein) "desc"), kw)
  in
  let enzyme = desc_contains "enzyme" and protein_kw = desc_contains "protein" in
  let t4_graph =
    (* A five-node complex topology for the canonicalization kernel. *)
    let interner = ctx.Topo_core.Context.interner in
    Exp_fig16.motif_graph interner
  in
  (* Fast-Top's pruned-topology checks for one query, walks only: the
     endpoint id sets are resolved before timing. *)
  let pruned_checks q =
    let aligned = Option.get (Topo_core.Methods.align ctx q) in
    ignore (Topo_core.Methods.pruned_walk_side ctx aligned);
    Staged.stage (fun () ->
        List.filter
          (Topo_core.Methods.pruned_check ctx aligned)
          aligned.Topo_core.Methods.store.Topo_core.Store.pruned)
  in
  let q_selective =
    Topo_core.Query.make
      (Topo_core.Query.keyword cat "Protein" ~col:"desc" ~kw:"zinc")
      (Topo_core.Query.endpoint cat "DNA")
  in
  let q_broad =
    Topo_core.Query.make
      (Topo_core.Query.keyword cat "Protein" ~col:"desc" ~kw:"protein")
      (Topo_core.Query.equals cat "DNA" ~col:"type" ~value:(Topo_sql.Value.Str "EST"))
  in
  let et_cat, et_spec = et_pricing_spec () in
  (* A Full-Top-k regular plan and a Full-Top-k-ET DGJ stack over AllTops
     for the broad query, planned once: execution only. *)
  let broad = Option.get (Topo_core.Methods.align ctx q_broad) in
  let broad_spec k =
    Topo_core.Methods.optimizer_spec broad
      ~fact:broad.Topo_core.Methods.store.Topo_core.Store.alltops ~scheme:Topo_core.Ranking.Freq ~k
  in
  let topk_plan, _ = Topo_sql.Optimizer.regular_plan cat (broad_spec 10) in
  (* A full 1,024-entry result cache; each run inserts one new key past
     capacity, so it also evicts the least recently used entry. *)
  let full_cache = Topo_core.Cache.create ~capacity:1024 () in
  let cached =
    {
      Topo_core.Cache.ranked = [ (1, Some 1.0) ];
      strategy = None;
      counters = { Topo_sql.Iterator.Counters.tuples = 0; index_probes = 0; rows_scanned = 0 };
    }
  in
  let next_key = ref 0 in
  let insert_next () =
    incr next_key;
    Topo_core.Cache.add_result full_cache ~key:(string_of_int !next_key) cached
  in
  for _ = 1 to 1024 do
    insert_next ()
  done;
  let et_plan =
    Topo_sql.Optimizer.et_plan cat (broad_spec max_int) ~impls:[ `I; `I; `I ] ~dim_order:[ 0; 1 ]
  in
  let pud =
    List.find
      (fun p -> Topo_graph.Schema_graph.path_length p = 2)
      (Topo_graph.Schema_graph.paths schema ~from_:"Protein" ~to_:"DNA" ~max_len:2)
  in
  let pd_paths = Topo_core.Compute.schema_paths_between schema ~t1:"Protein" ~t2:"DNA" ~l:3 in
  [
    (* fig8: schema-level gluing enumeration at l = 2. *)
    Test.make ~name:"fig8_glue_l2"
      (Staged.stage (fun () ->
           let interner = Topo_util.Interner.create () in
           Topo_graph.Glue.enumerate interner schema ~from_:"Protein" ~to_:"DNA" ~max_len:2
             ~collect:false ()));
    (* fig11/fig12: the canonicalization kernel of the AllTops sweep. *)
    Test.make ~name:"fig11_canon_key" (Staged.stage (fun () -> Topo_graph.Canon.key t4_graph));
    (* fig11: instance-path enumeration for one schema path. *)
    Test.make ~name:"fig11_path_enum"
      (Staged.stage (fun () ->
           let n = ref 0 in
           Topo_graph.Data_graph.iter_instance_paths ctx.Topo_core.Context.dg pud ~f:(fun _ -> incr n);
           !n));
    (* table1: pruned-store construction is dominated by pair_topologies. *)
    Test.make ~name:"table1_pair_topologies"
      (Staged.stage (fun () ->
           Topo_core.Compute.pair_topologies ctx.Topo_core.Context.dg ~paths:pd_paths ~same_type:false
             ~a:Biozon.Paper_db.p78 ~b:Biozon.Paper_db.d215 ~caps:Topo_core.Compute.default_caps));
    (* table2: the two competing online strategies. *)
    Test.make ~name:"table2_full_top"
      (Staged.stage (fun () ->
           Topo_core.(
             Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q_pd)))));
    Test.make ~name:"table2_fast_top_k"
      (Staged.stage (fun () ->
           Topo_core.(
             Request.get_done (Engine.run_request engine (Request.make ~k:10 Engine.Fast_top_k q_pi)))));
    Test.make ~name:"table2_fast_top_k_et"
      (Staged.stage (fun () ->
           Topo_core.(
             Request.get_done (Engine.run_request engine (Request.make ~k:10 Engine.Fast_top_k_et q_pi)))));
    (* table3/fig17: weak-path classification. *)
    Test.make ~name:"fig17_weak_classification"
      (Staged.stage (fun () ->
           List.map Topo_core.Weak.is_weak_path
             (Topo_graph.Schema_graph.paths schema ~from_:"Protein" ~to_:"DNA" ~max_len:4)));
    (* varyk: the optimizer's cost model evaluation. *)
    Test.make ~name:"varyk_cost_model"
      (Staged.stage (fun () ->
           let levels =
             [|
               { Topo_sql.Dgj_cost.n_inner = 1000; probe_cost = 1.0; pred_sel = 0.3; join_sel = 0.001 };
               { Topo_sql.Dgj_cost.n_inner = 500; probe_cost = 1.0; pred_sel = 0.5; join_sel = 0.002 };
             |]
           in
           Topo_sql.Dgj_cost.expected_cost
             { Topo_sql.Dgj_cost.cards = Array.make 100 20; levels; k = 10; per_group_overhead = 1.0 }));
    (* Plan execution: every join chain runs as one row-number pipeline. *)
    Test.make ~name:"pipeline_topk" (Staged.stage (fun () -> Topo_sql.Physical.run cat topk_plan));
    Test.make ~name:"pipeline_et"
      (Staged.stage (fun () ->
           Topo_sql.Op_dgj.first_match_per_group (Topo_sql.Physical.lower cat et_plan) ~k:10));
    Test.make ~name:"pruned_check_selective" (pruned_checks q_selective);
    Test.make ~name:"pruned_check_broad" (pruned_checks q_broad);
    (* -Opt: pricing the 16 early-termination candidates of one spec. *)
    Test.make ~name:"et_pricing"
      (Staged.stage (fun () -> Topo_sql.Optimizer.best_et_plan et_cat et_spec));
    (* -Opt: the regular plan's join-order DP, and the whole decision,
       for the broad P-D spec. *)
    Test.make ~name:"regular_plan"
      (Staged.stage (fun () -> Topo_sql.Optimizer.regular_plan cat (broad_spec 10)));
    Test.make ~name:"choose" (Staged.stage (fun () -> Topo_sql.Optimizer.choose cat (broad_spec 10)));
    Test.make ~name:"cache_insert_evict" (Staged.stage insert_next);
    (* table2: the keyword predicate, evaluated over the whole Protein
       table and estimated from its statistics. *)
    Test.make ~name:"contains_scan"
      (Staged.stage (fun () -> Topo_sql.Iterator.count (Topo_sql.Op_scan.seq ~pred:enzyme protein)));
    (* The fixed cost an operator pays per instance: the 85% keyword's
       row bitmap, built from the column's postings. *)
    Test.make ~name:"contains_filter_compile"
      (Staged.stage (fun () -> Topo_sql.Row_filter.compile protein protein_kw));
    Test.make ~name:"contains_estimate"
      (Staged.stage (fun () ->
           Topo_sql.Table_stats.predicate_selectivity
             (Topo_sql.Catalog.stats cat "Protein")
             (Topo_sql.Table.schema protein) enzyme));
    (* instances: witness reconstruction. *)
    Test.make ~name:"instances_witness"
      (Staged.stage (fun () ->
           let store = Topo_core.Engine.store engine ~t1:"Protein" ~t2:"DNA" in
           match Topo_core.Analysis.top_frequent store ~n:1 with
           | (tid, _) :: _ -> (
               match Topo_core.Instances.pairs_of_topology ctx store ~tid with
               | (a, b) :: _ -> Topo_core.Instances.witness ctx store ~tid ~a ~b
               | [] -> None)
           | [] -> None));
  ]

let run () =
  Topo_util.Console.section "Bechamel micro-benchmarks (ns/run, OLS estimate)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make_grouped ~name:"micro" (tests ())) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%.0f" t
        | Some [] | None -> "-"
      in
      rows := [ name; estimate ] :: !rows)
    results;
  Topo_util.Console.print ~header:[ "kernel"; "ns/run" ] (List.sort compare !rows)
