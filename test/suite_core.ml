(* Tests for the topology-search core: the formal definitions on the
   paper's own example database, the pruning machinery, the nine query
   methods (including cross-method agreement), ranking, instance retrieval
   and weak-relationship classification. *)

open Topo_core
module Value = Topo_sql.Value

let paper_engine ?(pruning_threshold = 50) () =
  let cat = Biozon.Paper_db.catalog () in
  let engine = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold () in
  (cat, engine)

let store_of engine = Engine.store engine ~t1:"Protein" ~t2:"DNA"

let tid_of_description engine ~contains =
  let store = store_of engine in
  let hit = ref None in
  Hashtbl.iter
    (fun tid _ ->
      let d = Engine.describe engine tid in
      if List.for_all (fun c -> Topo_sql.Expr.keyword_matches ~keyword:c ~text:d ||
                                (let re = c in String.length re > 0 &&
                                 (let rec find i = i + String.length re <= String.length d &&
                                    (String.sub d i (String.length re) = re || find (i+1)) in find 0)))
           contains
      then hit := Some tid)
    store.Store.frequencies;
  !hit

(* The sweep's (a, b, TIDs) rows regrouped from AllTops, which holds them
   in sweep-row order, each row's TIDs contiguous and ascending. *)
let alltops_rows (engine : Engine.t) (store : Store.t) =
  let table = Topo_sql.Catalog.find engine.Engine.ctx.Context.catalog store.Store.alltops in
  let col = Topo_sql.Schema.index_of (Topo_sql.Table.schema table) in
  let e1 = col "E1" and e2 = col "E2" and tid = col "TID" in
  let groups = ref [] in
  Topo_sql.Table.iter
    (fun _ tuple ->
      let a = Value.as_int tuple.(e1) and b = Value.as_int tuple.(e2) in
      let t = Value.as_int tuple.(tid) in
      match !groups with
      | (a', b', tids) :: rest when a' = a && b' = b -> groups := (a, b, t :: tids) :: rest
      | acc -> groups := (a, b, [ t ]) :: acc)
    table;
  List.rev_map (fun (a, b, tids) -> (a, b, List.rev tids)) !groups

(* --- Definitions 1-3 on the Figure 3 database --------------------------- *)

(* 3-Top(a, b) recomputed over every Protein-DNA schema path of length
   <= 3, with TIDs looked up in [ctx]'s registry: the row a build without
   a path filter holds for the pair. *)
let recompute_row ?(caps = Compute.default_caps) (ctx : Context.t) ~a ~b =
  let keys, class_keys =
    Compute.pair_topologies ctx.Context.dg
      ~paths:(Compute.schema_paths_between ctx.Context.schema ~t1:"Protein" ~t2:"DNA" ~l:3)
      ~same_type:false ~a ~b ~caps
  in
  let tid key = (Option.get (Topology.find_by_key ctx.Context.registry key)).Topology.tid in
  { Compute.a; b; tids = List.sort compare (List.map tid keys); class_keys }

let test_pathec_78_215 () =
  let _, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let row = recompute_row ctx ~a:78 ~b:215 in
  (* "3-PathEC(78,215) contains two equivalence classes". *)
  Alcotest.(check int) "two classes" 2 (List.length row.Compute.class_keys)

let test_top_78_215_two_complex_topologies () =
  let _, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let row = recompute_row ctx ~a:78 ~b:215 in
  (* "3-Top(78,215) = { T3, T4 }": two topologies, both complex (unions of
     a P-U-D path and a P-U-P-D path). *)
  Alcotest.(check int) "two topologies" 2 (List.length row.Compute.tids);
  List.iter
    (fun tid ->
      let t = Engine.topology engine tid in
      Alcotest.(check bool) "complex" false (Topology.is_single_path t);
      Alcotest.(check int) "two classes in decomposition" 2 (List.length t.Topology.decomposition))
    row.Compute.tids;
  (* T3 shares the Unigene (4 nodes), T4 does not (5 nodes). *)
  let sizes =
    List.sort compare (List.map (fun tid -> (Engine.topology engine tid).Topology.n_nodes) row.Compute.tids)
  in
  Alcotest.(check (list int)) "T3 and T4 sizes" [ 4; 5 ] sizes

let test_top_32_214_is_encodes_path () =
  let _, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let row = recompute_row ctx ~a:32 ~b:214 in
  Alcotest.(check int) "single topology" 1 (List.length row.Compute.tids);
  let t = Engine.topology engine (List.hd row.Compute.tids) in
  Alcotest.(check bool) "simple path" true (Topology.is_single_path t);
  Alcotest.(check int) "one edge" 1 t.Topology.n_edges;
  let d = Engine.describe engine t.Topology.tid in
  Alcotest.(check bool) "encodes path" true (Topo_sql.Expr.keyword_matches ~keyword:"encodes" ~text:d)

let test_top_44_742_is_pud_path () =
  let _, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let row = recompute_row ctx ~a:44 ~b:742 in
  (* Two isomorphic paths, one class, so the topology is the simple P-U-D
     path (T2) and nothing else. *)
  Alcotest.(check int) "one class" 1 (List.length row.Compute.class_keys);
  Alcotest.(check int) "one topology" 1 (List.length row.Compute.tids);
  let t = Engine.topology engine (List.hd row.Compute.tids) in
  Alcotest.(check bool) "simple path" true (Topology.is_single_path t);
  Alcotest.(check int) "two edges" 2 t.Topology.n_edges

let test_unrelated_pair_empty () =
  let _, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let row = recompute_row ctx ~a:32 ~b:742 in
  Alcotest.(check (list int)) "no topologies" [] row.Compute.tids

let test_q1_returns_four_topologies () =
  let cat, engine = paper_engine () in
  let q = Query.q1 cat in
  let r = Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)) in
  (* "3-Topology(Q,G) = {T1, T2, T3, T4}". *)
  Alcotest.(check int) "four topologies" 4 (List.length r.Request.ranked);
  ignore (tid_of_description engine ~contains:[])

let test_q1_excludes_triangle_of_34_215 () =
  (* Pair (34,215) is related by a P-D/P-U-D triangle, but protein 34 does
     not match 'enzyme', so that topology must not appear in Q1's answer. *)
  let cat, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let row = recompute_row ctx ~a:34 ~b:215 in
  Alcotest.(check int) "triangle pair" 1 (List.length row.Compute.tids);
  let triangle = List.hd row.Compute.tids in
  let q = Query.q1 cat in
  let r = Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)) in
  Alcotest.(check bool) "triangle excluded" false
    (List.exists (fun (tid, _) -> tid = triangle) r.Request.ranked)

let test_l_bounds_results () =
  (* With l = 1 only the direct encodes path remains. *)
  let cat = Biozon.Paper_db.catalog () in
  let engine = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~l:1 () in
  let r =
    Request.get_done (Engine.run_request engine (Request.make Engine.Full_top (Query.q1 cat)))
  in
  Alcotest.(check int) "only T1" 1 (List.length r.Request.ranked)

(* --- pruning and the exception table ------------------------------------- *)

let test_pruning_threshold_zero_prunes_everything () =
  (* Only single-path topologies are prunable (Section 4.2.2's premise);
     the paper database has two: T1 (P-encodes-D) and T2 (P-U-D). *)
  let _, engine = paper_engine ~pruning_threshold:0 () in
  let store = store_of engine in
  Alcotest.(check int) "both simple topologies pruned" 2 (List.length store.Store.pruned);
  List.iter
    (fun (t : Topology.t) ->
      Alcotest.(check bool) "pruned are simple" true (Topology.is_single_path t))
    store.Store.pruned;
  let cat = engine.Engine.ctx.Context.catalog in
  (* LeftTops keeps only the complex topologies' rows: T3, T4 of (78,215)
     and the (34,215) triangle. *)
  Alcotest.(check int) "lefttops rows" 3
    (Topo_sql.Table.row_count (Topo_sql.Catalog.find cat store.Store.lefttops))

let test_excptops_contains_78_215_for_pud () =
  (* The paper's example: (78,215) satisfies T2's path condition but is
     related by T3/T4, so it must appear in ExcpTops once T2 is pruned. *)
  let _, engine = paper_engine ~pruning_threshold:0 () in
  let store = store_of engine in
  let cat = engine.Engine.ctx.Context.catalog in
  (* Find the P-U-D path topology (2 edges, simple). *)
  let pud =
    Hashtbl.fold
      (fun tid _ acc ->
        let t = Engine.topology engine tid in
        if Topology.is_single_path t && t.Topology.n_edges = 2 then Some tid else acc)
      store.Store.frequencies None
  in
  match pud with
  | None -> Alcotest.fail "PUD topology not found"
  | Some tid ->
      Alcotest.(check bool) "(78,215) excepted for T2" true
        (Store.is_excepted store cat ~a:78 ~b:215 ~tid);
      Alcotest.(check bool) "(44,742) not excepted" false
        (Store.is_excepted store cat ~a:44 ~b:742 ~tid)

let test_fast_top_equals_full_top_under_heavy_pruning () =
  let cat, engine = paper_engine ~pruning_threshold:0 () in
  let q = Query.q1 cat in
  let full = Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)) in
  let fast = Request.get_done (Engine.run_request engine (Request.make Engine.Fast_top q)) in
  let tids r = List.map fst r.Request.ranked in
  Alcotest.(check (list int)) "same answer with everything pruned" (tids full) (tids fast)

let test_pruned_check_respects_predicates () =
  let cat, engine = paper_engine ~pruning_threshold:0 () in
  (* A query nothing satisfies. *)
  let q =
    Query.make
      (Query.keyword cat "Protein" ~col:"desc" ~kw:"nonexistentword")
      (Query.equals cat "DNA" ~col:"type" ~value:(Value.Str "mRNA"))
  in
  let fast = Request.get_done (Engine.run_request engine (Request.make Engine.Fast_top q)) in
  Alcotest.(check int) "empty" 0 (List.length fast.Request.ranked)

(* --- pruned-topology check against a brute-force oracle -------------------- *)

let oracle_pairs = [ ("Protein", "DNA"); ("Protein", "Interaction"); ("Protein", "Protein") ]

(* A low threshold prunes most topologies; the same-type pair exercises
   classes that also read reversed. *)
let oracle_engine =
  lazy
    (let cat = Biozon.Generator.generate (Biozon.Generator.scale 0.05 Biozon.Generator.default) in
     (cat, Engine.build cat ~pairs:oracle_pairs ~pruning_threshold:3 ()))

(* No constraint, a [desc] keyword (calibrated, filler or absent), or
   DNA's [type]. *)
let calibrated entity =
  match entity with
  | "Protein" -> List.map fst Biozon.Vocab.protein_keywords
  | "Interaction" -> List.map fst Biozon.Vocab.interaction_keywords
  | _ -> []

let gen_endpoint cat entity =
  let open QCheck.Gen in
  let calibrated = calibrated entity in
  let keyword =
    map
      (fun kw -> Query.keyword cat entity ~col:"desc" ~kw)
      (oneofl (calibrated @ [ "membrane"; "putative"; "zinc"; "nonexistentword" ]))
  in
  let dna_type =
    map
      (fun ty -> Query.equals cat entity ~col:"type" ~value:(Value.Str ty))
      (oneofl (List.map fst Biozon.Vocab.dna_types))
  in
  frequency
    ((1, return (Query.endpoint cat entity)) :: (3, keyword) :: (if entity = "DNA" then [ (2, dna_type) ] else []))

let gen_oracle_query cat =
  let open QCheck.Gen in
  oneofl oracle_pairs >>= fun (t1, t2) ->
  bool >>= fun swap ->
  let t1, t2 = if swap then (t2, t1) else (t1, t2) in
  map2 Query.make (gen_endpoint cat t1) (gen_endpoint cat t2)

(* The ids an endpoint admits, by definition: the id of every row of its
   table on which the predicate is truthy, sorted.  It reads no lane and
   no posting, so it checks [Context.satisfying_ids] rather than
   repeating it. *)
let brute_force_ids catalog (e : Query.endpoint) =
  let ids = ref [] in
  Topo_sql.Table.iter
    (fun _ tuple ->
      if Option.fold ~none:true ~some:(fun p -> Topo_sql.Expr.truthy p tuple) e.Query.pred then
        ids := Value.as_int tuple.(0) :: !ids)
    (Topo_sql.Catalog.find catalog e.Query.entity);
  Array.of_list (List.sort Int.compare !ids)

(* The check's definition, evaluated pair by pair: some (a, b) of the two
   endpoint sets has every class of some decomposition and is not
   excepted. *)
let brute_force_pruned ctx (aligned : Methods.aligned) (p : Topology.t) =
  let b_ids = brute_force_ids ctx.Context.catalog aligned.Methods.eb in
  Array.exists
    (fun a ->
      Array.exists
        (fun b ->
          List.exists
            (List.for_all (fun key -> Context.class_exists_between ctx key ~a ~b))
            (Atomic.get p.Topology.decompositions)
          && not (Store.is_excepted aligned.Methods.store ctx.Context.catalog ~a ~b ~tid:p.Topology.tid))
        b_ids)
    (brute_force_ids ctx.Context.catalog aligned.Methods.ea)

(* [on_side] sees the walk side of every query with pruned topologies. *)
let prop_pruned_check_matches_oracle ~on_side =
  QCheck.Test.make ~name:"pruned_check = brute-force oracle, both orientations" ~count:100
    (QCheck.make ~print:Query.to_string (fun st -> gen_oracle_query (fst (Lazy.force oracle_engine)) st))
    (fun q ->
      let ctx = (snd (Lazy.force oracle_engine)).Engine.ctx in
      let aligned = Option.get (Methods.align ctx q) in
      if aligned.Methods.store.Store.pruned <> [] then on_side (Methods.pruned_walk_side ctx aligned);
      List.for_all
        (fun (p : Topology.t) ->
          let got = Methods.pruned_check ctx aligned p and want = brute_force_pruned ctx aligned p in
          got = want
          || QCheck.Test.fail_reportf "T%d: pruned_check %b, oracle %b" p.Topology.tid got want)
        aligned.Methods.store.Store.pruned)

(* The oracle property, plus: the generated queries start checks from
   both endpoints, so the reversed walkers (same-type pair included) are
   exercised. *)
let test_pruned_check_matches_oracle () =
  let e1 = ref 0 and e2 = ref 0 in
  let on_side = function `E1 -> incr e1 | `E2 -> incr e2 in
  QCheck.Test.check_exn (prop_pruned_check_matches_oracle ~on_side);
  Alcotest.(check bool) (Printf.sprintf "both sides walked (E1 %d, E2 %d)" !e1 !e2) true (!e1 > 0 && !e2 > 0)

let test_pruned_walk_side_rule () =
  let _, engine = Lazy.force oracle_engine in
  let ctx = engine.Engine.ctx and cat = fst (Lazy.force oracle_engine) in
  let side e1 e2 = Methods.pruned_walk_side ctx (Option.get (Methods.align ctx (Query.make e1 e2))) in
  let any = Query.endpoint cat and rare = Query.keyword cat "Protein" ~col:"desc" ~kw:"nonexistentword" in
  Alcotest.(check bool) "tie walks from E1" true (side (any "Protein") (any "Protein") = `E1);
  Alcotest.(check bool) "selective E2" true (side (any "Protein") rare = `E2);
  Alcotest.(check bool) "selective E1" true (side rare (any "Protein") = `E1);
  (* The query's E2 is the store's E1 side when the pair is stored the
     other way round. *)
  Alcotest.(check bool) "sides follow the store orientation" true (side (any "DNA") rare = `E1)

(* --- endpoint id sets against a brute-force scan ----------------------------- *)

(* Every predicate shape an endpoint id set is derived from: none; a
   single-word keyword (calibrated, filler or absent), answered from
   postings; a multi-word phrase, evaluated row by row; DNA's [type];
   a keyword with that equality; two keywords. *)
let gen_id_endpoint cat entity =
  let open QCheck.Gen in
  let keyword kw = Query.keyword cat entity ~col:"desc" ~kw in
  let word = oneofl (calibrated entity @ [ "membrane"; "putative"; "zinc"; "ubiquitin"; "enzyme"; "nonexistentword" ]) in
  let phrase =
    oneof
      [
        oneofl [ "ubiquitin conjugating"; "conjugating enzyme"; "zinc finger"; "complete cds" ];
        map2 (fun a b -> a ^ " " ^ b) word word;
      ]
  in
  let dna_type =
    map
      (fun ty -> Query.equals cat entity ~col:"type" ~value:(Value.Str ty))
      (oneofl (List.map fst Biozon.Vocab.dna_types))
  in
  frequency
    ([
       (1, return (Query.endpoint cat entity));
       (3, map keyword word);
       (2, map keyword phrase);
       (2, map2 (fun a b -> Query.conj (keyword a) (keyword b)) word word);
     ]
    @
    if entity = "DNA" then [ (2, dna_type); (2, map2 (fun w t -> Query.conj (keyword w) t) word dna_type) ]
    else [])

(* The generator at scale 0.05 and the paper's database, whose Protein ids
   are not stored in ascending order. *)
let id_catalogs = lazy [| fst (Lazy.force oracle_engine); Biozon.Paper_db.catalog () |]

let arb_id_endpoint =
  let gen =
    let open QCheck.Gen in
    oneofl [ 0; 1 ] >>= fun i ->
    let cat = (Lazy.force id_catalogs).(i) in
    oneofl [ "Protein"; "DNA"; "Interaction" ] >>= fun entity ->
    map (fun e -> (i, e)) (gen_id_endpoint cat entity)
  in
  QCheck.make ~print:(fun (i, (e : Query.endpoint)) -> Printf.sprintf "catalog %d: %s" i e.Query.label) gen

(* [satisfying_ids] reads only the catalog. *)
let id_ctx cat = { (snd (Lazy.force oracle_engine)).Engine.ctx with Context.catalog = cat }

let prop_satisfying_ids_brute_force =
  QCheck.Test.make ~name:"satisfying_ids = brute-force scan" ~count:300 arb_id_endpoint (fun (i, e) ->
      let cat = (Lazy.force id_catalogs).(i) in
      let got = Context.satisfying_ids (id_ctx cat) e and want = brute_force_ids cat e in
      got = want
      || QCheck.Test.fail_reportf "got %d ids, want %d" (Array.length got) (Array.length want))

let prop_row_filter_rows_compile =
  QCheck.Test.make ~name:"Row_filter.rows = compile over every row" ~count:300 arb_id_endpoint
    (fun (i, e) ->
      match e.Query.pred with
      | None -> true
      | Some pred ->
          let table = Topo_sql.Catalog.find (Lazy.force id_catalogs).(i) e.Query.entity in
          let keep = Topo_sql.Row_filter.compile table pred and want = ref [] in
          Topo_sql.Table.iter (fun r tuple -> if keep r tuple then want := r :: !want) table;
          Topo_sql.Row_filter.rows table pred = Array.of_list (List.rev !want))

let test_satisfying_ids_brute_force () = QCheck.Test.check_exn prop_satisfying_ids_brute_force
let test_row_filter_rows_compile () = QCheck.Test.check_exn prop_row_filter_rows_compile

(* Ids inserted in descending order come back ascending, and the table's
   own id lane is left as it was. *)
let test_satisfying_ids_descending_inserts () =
  let cat = Topo_sql.Catalog.create () in
  let table =
    Topo_sql.Catalog.create_table cat ~name:"Protein"
      ~schema:
        (Topo_sql.Schema.make
           [
             { Topo_sql.Schema.name = "ID"; ty = Topo_sql.Schema.TInt };
             { Topo_sql.Schema.name = "desc"; ty = Topo_sql.Schema.TStr };
           ])
      ~primary_key:"ID" ()
  in
  List.iter
    (fun (id, desc) -> Topo_sql.Table.insert_values table [ Value.Int id; Value.Str desc ])
    [ (9, "enzyme"); (7, "kinase"); (4, "enzyme"); (2, "enzyme kinase") ];
  let ids e = Context.satisfying_ids (id_ctx cat) e in
  Alcotest.(check (array int)) "all" [| 2; 4; 7; 9 |] (ids (Query.endpoint cat "Protein"));
  Alcotest.(check (array int)) "enzyme" [| 2; 4; 9 |] (ids (Query.keyword cat "Protein" ~col:"desc" ~kw:"enzyme"));
  Alcotest.(check (option (array int))) "lane untouched" (Some [| 9; 7; 4; 2 |]) (Topo_sql.Table.int_lane table 0)

(* --- method agreement on the synthetic database --------------------------- *)

let synthetic_engine =
  lazy
    (let params =
       {
         Biozon.Generator.default with
         Biozon.Generator.n_proteins = 300;
         n_unigenes = 170;
         n_interactions = 110;
         n_families = 40;
         n_structures = 50;
         n_pathways = 16;
       }
     in
     let cat = Biozon.Generator.generate params in
     let engine =
       Engine.build cat
         ~pairs:[ ("Protein", "DNA"); ("Protein", "Interaction") ]
         ~pruning_threshold:20 ()
     in
     (cat, engine))

let synthetic_queries cat =
  [
    Query.make
      (Query.keyword cat "Protein" ~col:"desc" ~kw:"enzyme")
      (Query.equals cat "DNA" ~col:"type" ~value:(Value.Str "mRNA"));
    Query.make
      (Query.keyword cat "Protein" ~col:"desc" ~kw:"kinase")
      (Query.keyword cat "DNA" ~col:"desc" ~kw:"putative");
    Query.make (Query.endpoint cat "Protein") (Query.equals cat "DNA" ~col:"type" ~value:(Value.Str "EST"));
    Query.make
      (Query.keyword cat "Protein" ~col:"desc" ~kw:"enzyme")
      (Query.keyword cat "Interaction" ~col:"desc" ~kw:"binding");
  ]

let test_sql_full_fast_agree () =
  let cat, engine = Lazy.force synthetic_engine in
  List.iteri
    (fun i q ->
      let tids m =
        List.map fst
          (Request.get_done (Engine.run_request engine (Request.make m q))).Request.ranked
      in
      let full = tids Engine.Full_top in
      Alcotest.(check (list int)) (Printf.sprintf "fast=full q%d" i) full (tids Engine.Fast_top);
      if i < 2 then
        (* The SQL method is slow; cross-check it on the selective queries. *)
        Alcotest.(check (list int)) (Printf.sprintf "sql=full q%d" i) full (tids Engine.Sql))
    (synthetic_queries cat)

let test_topk_methods_agree () =
  let cat, engine = Lazy.force synthetic_engine in
  let k = 7 in
  List.iteri
    (fun i q ->
      List.iter
        (fun scheme ->
          let run m =
            (Request.get_done
               (Engine.run_request engine (Request.make ~scheme ~k m q)))
              .Request.ranked
          in
          let scores r = List.map (fun (_, s) -> match s with Some s -> s | None -> nan) r in
          let full = run Engine.Full_top_k in
          List.iter
            (fun m ->
              let got = run m in
              (* Score multisets must agree (ties may order differently). *)
              Alcotest.(check (list (float 1e-9)))
                (Printf.sprintf "%s scores q%d %s" (Engine.method_name m) i (Ranking.name scheme))
                (List.sort compare (scores full))
                (List.sort compare (scores got)))
            [ Engine.Fast_top_k; Engine.Full_top_k_et; Engine.Fast_top_k_et; Engine.Full_top_k_opt; Engine.Fast_top_k_opt ])
        [ Ranking.Freq; Ranking.Rare; Ranking.Domain ])
    (synthetic_queries cat)

let test_topk_prefix_of_full_ranking () =
  let cat, engine = Lazy.force synthetic_engine in
  let q = List.hd (synthetic_queries cat) in
  let all =
    (Request.get_done
       (Engine.run_request engine (Request.make ~scheme:Ranking.Freq ~k:1000 Engine.Full_top_k q)))
      .Request.ranked
  in
  let top3 =
    (Request.get_done
       (Engine.run_request engine (Request.make ~scheme:Ranking.Freq ~k:3 Engine.Full_top_k q)))
      .Request.ranked
  in
  let scores r = List.map (fun (_, s) -> Option.get s) r in
  Alcotest.(check (list (float 1e-9)))
    "top-3 scores are the 3 best"
    (List.filteri (fun i _ -> i < 3) (scores all))
    (scores top3)

let test_et_impls_equivalent () =
  (* IDGJ-only and HDGJ-only plans must return the same answers. *)
  let cat, engine = Lazy.force synthetic_engine in
  let q = List.hd (synthetic_queries cat) in
  let aligned = Option.get (Methods.align engine.Engine.ctx q) in
  let run impls =
    fst (Methods.dispatch Engine.Fast_top_k_et ~impls engine.Engine.ctx aligned ~scheme:Ranking.Domain ~k:5)
  in
  let scores r = List.map (fun (_, s) -> Option.get s) r in
  Alcotest.(check (list (float 1e-9))) "I vs H" (scores (run [ `I; `I; `I ])) (scores (run [ `H; `H; `H ]))

let test_counters_show_early_termination () =
  (* Early termination pays off for unselective predicates (Section 6.2.2);
     under selective ones the DGJ overhead can exceed the savings, which is
     exactly the optimizer's reason to exist. *)
  let cat, engine = Lazy.force synthetic_engine in
  let q = Query.make (Query.endpoint cat "Protein") (Query.endpoint cat "DNA") in
  let tuples m =
    let o = Engine.run_request engine (Request.make ~scheme:Ranking.Freq ~k:3 m q) in
    ignore (Request.get_done o);
    o.Request.counters.Topo_sql.Iterator.Counters.tuples
  in
  let regular_tuples = tuples Engine.Full_top_k and et_tuples = tuples Engine.Full_top_k_et in
  Alcotest.(check bool)
    (Printf.sprintf "ET touches fewer tuples (%d < %d)" et_tuples regular_tuples)
    true (et_tuples < regular_tuples)

(* --- ranking --------------------------------------------------------------- *)

let test_ranking_names_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check bool) "roundtrip" true (Ranking.of_name (Ranking.name s) = s))
    Ranking.all

let test_freq_and_rare_are_inverse_orders () =
  let _, engine = Lazy.force synthetic_engine in
  let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
  let interner = engine.Engine.ctx.Context.interner in
  Hashtbl.iter
    (fun tid freq ->
      let t = Engine.topology engine tid in
      let f = Ranking.score Ranking.Freq interner t ~freq in
      let r = Ranking.score Ranking.Rare interner t ~freq in
      Alcotest.(check (float 1e-9)) "freq*rare = 1" 1.0 (f *. r))
    store.Store.frequencies

let test_domain_prefers_fig16_shape () =
  (* Build the Figure 16 motif graph and a weak P-D-P-U-D path; the Domain
     heuristic must score the motif higher. *)
  let interner = Topo_util.Interner.create () in
  let n ty = Topo_util.Interner.intern interner ("n:" ^ ty) in
  let e rel = Topo_util.Interner.intern interner ("e:" ^ rel) in
  let motif = Topo_graph.Lgraph.empty () in
  List.iter (fun (id, ty) -> Topo_graph.Lgraph.add_node motif ~id ~label:(n ty))
    [ (1, "Protein"); (2, "Protein"); (3, "DNA"); (4, "Interaction") ];
  List.iter (fun (u, v, rel) -> Topo_graph.Lgraph.add_edge motif ~u ~v ~label:(e rel))
    [ (1, 3, "encodes"); (2, 3, "encodes"); (1, 4, "interacts_p"); (2, 4, "interacts_p") ];
  let registry = Topology.create_registry () in
  let t_motif = Topology.register registry motif ~decomposition:[ "c1"; "c2" ] in
  let weak = Topo_graph.Lgraph.empty () in
  List.iter (fun (id, ty) -> Topo_graph.Lgraph.add_node weak ~id ~label:(n ty))
    [ (1, "Protein"); (2, "DNA"); (3, "Protein"); (4, "Unigene"); (5, "DNA") ];
  List.iter (fun (u, v, rel) -> Topo_graph.Lgraph.add_edge weak ~u ~v ~label:(e rel))
    [ (1, 2, "encodes"); (2, 3, "encodes"); (3, 4, "uni_encodes"); (4, 5, "uni_contains") ];
  let weak_key = "Protein~encodes~DNA~encodes~Protein~uni_encodes~Unigene~uni_contains~DNA" in
  let t_weak = Topology.register registry weak ~decomposition:[ weak_key ] in
  let sm = Ranking.domain_score interner t_motif and sw = Ranking.domain_score interner t_weak in
  Alcotest.(check bool) (Printf.sprintf "motif %.1f > weak %.1f" sm sw) true (sm > sw)

(* --- instance retrieval ------------------------------------------------------ *)

let test_instances_pairs_of_topology () =
  let _, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let store = store_of engine in
  (* The P-U-D topology occurs only for (44, 742). *)
  let pud =
    Hashtbl.fold
      (fun tid _ acc ->
        let t = Engine.topology engine tid in
        if Topology.is_single_path t && t.Topology.n_edges = 2 then Some tid else acc)
      store.Store.frequencies None
  in
  match pud with
  | None -> Alcotest.fail "no PUD topology"
  | Some tid ->
      Alcotest.(check (list (pair int int))) "pairs" [ (44, 742) ]
        (Instances.pairs_of_topology ctx store ~tid)

let test_instances_witness_roundtrip () =
  let _, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let store = store_of engine in
  (* Every (pair, topology) row must admit a witness whose canonical key
     matches the topology. *)
  List.iter
    (fun (a, b, tids) ->
      List.iter
        (fun tid ->
          match Instances.witness ctx ~tid ~a ~b with
          | None -> Alcotest.failf "no witness for (%d,%d) tid %d" a b tid
          | Some g ->
              Alcotest.(check string) "witness canonicalizes to the topology"
                (Engine.topology engine tid).Topology.key (Topo_graph.Canon.key g))
        tids)
    (alltops_rows engine store)

let test_instances_witness_absent () =
  let _, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let store = store_of engine in
  let any_tid = Hashtbl.fold (fun tid _ _ -> Some tid) store.Store.frequencies None in
  match any_tid with
  | None -> Alcotest.fail "no topologies"
  | Some tid ->
      Alcotest.(check bool) "unrelated pair has no witness" true
        (Instances.witness ctx ~tid ~a:32 ~b:742 = None)

(* --- weak relationships -------------------------------------------------------- *)

let test_weak_pdpud_classified () =
  let p =
    {
      Topo_graph.Schema_graph.types = [| "Protein"; "DNA"; "Protein"; "Unigene"; "DNA" |];
      rels = [| "encodes"; "encodes"; "uni_encodes"; "uni_contains" |];
    }
  in
  Alcotest.(check bool) "P-D-P-U-D weak" true (Weak.is_weak_path p);
  Alcotest.(check bool) "key form too" true
    (Weak.is_weak_class_key (Topo_graph.Schema_graph.path_key p))

let test_weak_short_paths_are_not_weak () =
  let p =
    {
      Topo_graph.Schema_graph.types = [| "Protein"; "DNA"; "Protein" |];
      rels = [| "encodes"; "encodes" |];
    }
  in
  (* P-D-P alone is length 2: the criterion requires length >= 4. *)
  Alcotest.(check bool) "short not weak" false (Weak.is_weak_path p)

let test_weak_pud_not_weak () =
  let p =
    {
      Topo_graph.Schema_graph.types = [| "Protein"; "Unigene"; "DNA"; "Interaction"; "DNA" |];
      rels = [| "uni_encodes"; "uni_contains"; "interacts_d"; "interacts_d" |];
    }
  in
  (* Length 4 but no weak segment. *)
  Alcotest.(check bool) "no weak segment" false (Weak.is_weak_path p)

let test_weak_table4_inventory () =
  Alcotest.(check int) "nine rows" 9 (List.length Weak.table4)

let test_reliability_ordering () =
  let mk types rels = { Topo_graph.Schema_graph.types; rels } in
  let direct = mk [| "Protein"; "DNA" |] [| "encodes" |] in
  let pud = mk [| "Protein"; "Unigene"; "DNA" |] [| "uni_encodes"; "uni_contains" |] in
  let weak =
    mk
      [| "Protein"; "DNA"; "Protein"; "Unigene"; "DNA" |]
      [| "encodes"; "encodes"; "uni_encodes"; "uni_contains" |]
  in
  let rd = Weak.path_reliability direct in
  let rp = Weak.path_reliability pud in
  let rw = Weak.path_reliability weak in
  Alcotest.(check bool)
    (Printf.sprintf "direct %.2f > PUD %.2f > weak %.2f" rd rp rw)
    true
    (rd > rp && rp > rw);
  Alcotest.(check (float 1e-9)) "direct = encodes weight" 0.95 rd;
  (* Key form agrees with the path form. *)
  Alcotest.(check (float 1e-9)) "key consistency" rw
    (Weak.class_key_reliability (Topo_graph.Schema_graph.path_key weak))

let test_reliability_topology_weakest_link () =
  let registry = Topology.create_registry () in
  let g = Topo_graph.Lgraph.empty () in
  Topo_graph.Lgraph.add_node g ~id:1 ~label:1;
  Topo_graph.Lgraph.add_node g ~id:2 ~label:2;
  Topo_graph.Lgraph.add_edge g ~u:1 ~v:2 ~label:9;
  let strong = "Protein~encodes~DNA" in
  let weakish = "Protein~belongs~Family~belongs~Protein~encodes~DNA" in
  let t = Topology.register registry g ~decomposition:[ strong; weakish ] in
  Alcotest.(check (float 1e-9)) "weakest link"
    (Weak.class_key_reliability weakish)
    (Weak.topology_reliability t)

let test_reliability_filter_build () =
  (* A high threshold keeps only direct-ish paths; topology count drops
     accordingly, but the engine still answers queries. *)
  let cat = Biozon.Paper_db.catalog () in
  let engine = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~min_reliability:0.9 () in
  let r =
    Request.get_done (Engine.run_request engine (Request.make Engine.Full_top (Query.q1 cat)))
  in
  (* Only the encodes path (reliability 0.95) survives a 0.9 threshold. *)
  Alcotest.(check int) "only the direct topology" 1 (List.length r.Request.ranked)

(* --- engine odds and ends --------------------------------------------------------- *)

let test_method_names () =
  Alcotest.(check int) "nine methods" 9 (List.length Engine.all_methods);
  Alcotest.(check string) "name" "Fast-Top-k-ET" (Engine.method_name Engine.Fast_top_k_et)

let test_store_lookup_either_orientation () =
  let _, engine = paper_engine () in
  let a = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
  let b = Engine.store engine ~t1:"DNA" ~t2:"Protein" in
  Alcotest.(check string) "same store" a.Store.alltops b.Store.alltops;
  match Engine.store engine ~t1:"Protein" ~t2:"Family" with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "names the held pairs" "no Protein-Family store (it holds Protein-DNA)" msg
  | _ -> Alcotest.fail "expected Invalid_argument for unbuilt pair"

let test_swapped_query_orientation () =
  let cat, engine = paper_engine () in
  let q = Query.q1 cat in
  let swapped = Query.make q.Query.e2 q.Query.e1 in
  let tids r = List.map fst r.Request.ranked in
  Alcotest.(check (list int)) "orientation independent"
    (tids (Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q))))
    (tids (Request.get_done (Engine.run_request engine (Request.make Engine.Full_top swapped))))

let test_analysis_zipf_on_synthetic () =
  let _, engine = Lazy.force synthetic_engine in
  let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
  let series = Analysis.frequency_series store in
  Alcotest.(check bool) "nonempty" true (Array.length series > 10);
  (* Descending. *)
  Array.iteri (fun i f -> if i > 0 then Alcotest.(check bool) "sorted" true (f <= series.(i - 1))) series;
  let s, r2 = Analysis.zipf_fit series in
  Alcotest.(check bool) (Printf.sprintf "zipf-ish s=%.2f r2=%.2f" s r2) true (s > 0.5 && r2 > 0.7)

let test_analysis_top_frequent_simple () =
  let _, engine = Lazy.force synthetic_engine in
  let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
  let frac = Analysis.simple_fraction engine.Engine.ctx.Context.registry store ~n:10 in
  (* Figure 12: most frequent topologies have simple structure. *)
  Alcotest.(check bool) (Printf.sprintf "top-10 mostly simple (%.2f)" frac) true (frac >= 0.6)

let suites =
  [
    ( "core.definitions",
      [
        Alcotest.test_case "PathEC(78,215) has 2 classes" `Quick test_pathec_78_215;
        Alcotest.test_case "Top(78,215) = {T3,T4}" `Quick test_top_78_215_two_complex_topologies;
        Alcotest.test_case "Top(32,214) = {T1}" `Quick test_top_32_214_is_encodes_path;
        Alcotest.test_case "Top(44,742) = {T2}" `Quick test_top_44_742_is_pud_path;
        Alcotest.test_case "unrelated pair" `Quick test_unrelated_pair_empty;
        Alcotest.test_case "Q1 = {T1..T4}" `Quick test_q1_returns_four_topologies;
        Alcotest.test_case "Q1 excludes non-matching pair" `Quick test_q1_excludes_triangle_of_34_215;
        Alcotest.test_case "l bounds results" `Quick test_l_bounds_results;
      ] );
    ( "core.pruning",
      [
        Alcotest.test_case "threshold 0 prunes all" `Quick test_pruning_threshold_zero_prunes_everything;
        Alcotest.test_case "ExcpTops (78,215,T2)" `Quick test_excptops_contains_78_215_for_pud;
        Alcotest.test_case "fast=full under heavy pruning" `Quick test_fast_top_equals_full_top_under_heavy_pruning;
        Alcotest.test_case "pruned check respects predicates" `Quick test_pruned_check_respects_predicates;
        Alcotest.test_case "pruned_check = brute-force oracle, both orientations" `Quick
          test_pruned_check_matches_oracle;
        Alcotest.test_case "pruned walk side rule" `Quick test_pruned_walk_side_rule;
      ] );
    ( "core.methods",
      [
        Alcotest.test_case "sql=full=fast" `Slow test_sql_full_fast_agree;
        Alcotest.test_case "top-k methods agree" `Slow test_topk_methods_agree;
        Alcotest.test_case "top-k is ranking prefix" `Quick test_topk_prefix_of_full_ranking;
        Alcotest.test_case "IDGJ = HDGJ answers" `Quick test_et_impls_equivalent;
        Alcotest.test_case "ET does less work" `Quick test_counters_show_early_termination;
      ] );
    ( "core.ranking",
      [
        Alcotest.test_case "names roundtrip" `Quick test_ranking_names_roundtrip;
        Alcotest.test_case "freq/rare inverse" `Quick test_freq_and_rare_are_inverse_orders;
        Alcotest.test_case "domain prefers Fig 16" `Quick test_domain_prefers_fig16_shape;
      ] );
    ( "core.instances",
      [
        Alcotest.test_case "pairs of topology" `Quick test_instances_pairs_of_topology;
        Alcotest.test_case "witness roundtrip" `Quick test_instances_witness_roundtrip;
        Alcotest.test_case "witness absent" `Quick test_instances_witness_absent;
      ] );
    ( "core.weak",
      [
        Alcotest.test_case "P-D-P-U-D weak" `Quick test_weak_pdpud_classified;
        Alcotest.test_case "short not weak" `Quick test_weak_short_paths_are_not_weak;
        Alcotest.test_case "no weak segment" `Quick test_weak_pud_not_weak;
        Alcotest.test_case "table 4" `Quick test_weak_table4_inventory;
        Alcotest.test_case "reliability ordering" `Quick test_reliability_ordering;
        Alcotest.test_case "weakest link" `Quick test_reliability_topology_weakest_link;
        Alcotest.test_case "reliability filter build" `Quick test_reliability_filter_build;
      ] );
    ( "core.ids",
      [
        Alcotest.test_case "satisfying_ids = brute-force scan" `Quick test_satisfying_ids_brute_force;
        Alcotest.test_case "Row_filter.rows = compile over every row" `Quick test_row_filter_rows_compile;
        Alcotest.test_case "descending inserts yield ascending ids" `Quick
          test_satisfying_ids_descending_inserts;
      ] );
    ( "core.engine",
      [
        Alcotest.test_case "method names" `Quick test_method_names;
        Alcotest.test_case "store orientation" `Quick test_store_lookup_either_orientation;
        Alcotest.test_case "swapped query" `Quick test_swapped_query_orientation;
        Alcotest.test_case "zipf on synthetic" `Quick test_analysis_zipf_on_synthetic;
        Alcotest.test_case "frequent are simple" `Quick test_analysis_top_frequent_simple;
      ] );
  ]
