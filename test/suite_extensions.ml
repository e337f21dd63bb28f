(* Tests for the future-work extensions (Section 8): n-ary queries,
   cross-query comparison primitives, and catalog persistence. *)

open Topo_core
module Value = Topo_sql.Value

let paper_engine () =
  let cat = Biozon.Paper_db.catalog () in
  (cat, Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 ())

(* --- n-ary queries ------------------------------------------------------- *)

let test_nquery_rejects_single_endpoint () =
  let cat, engine = paper_engine () in
  let e = Query.endpoint cat "Protein" in
  match Nquery.run engine.Engine.ctx ~endpoints:[ e ] () with
  | exception (Invalid_argument _) -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_nquery_two_endpoints_matches_pairwise () =
  (* A 2-ary n-query must agree with the pairwise machinery. *)
  let cat, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let q = Query.q1 cat in
  let r = Nquery.run ctx ~endpoints:[ q.Query.e1; q.Query.e2 ] () in
  let pairwise = Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)) in
  Alcotest.(check (list int)) "same topology set"
    (List.map fst pairwise.Request.ranked |> List.sort compare)
    r.Nquery.topologies

let test_nquery_triple_on_paper_db () =
  (* The triple (78, 103, 215): protein 78, unigene 103, DNA 215 are fully
     interconnected (Figure 6); the 3-query topology must connect all
     three. *)
  let cat, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  ignore cat;
  let tids =
    Nquery.tuple_topologies ctx ~types:[| "Protein"; "Unigene"; "DNA" |] ~entities:[| 78; 103; 215 |]
  in
  Alcotest.(check bool) "some topology" true (tids <> []);
  List.iter
    (fun tid ->
      let t = Engine.topology engine tid in
      let ids = Topo_graph.Lgraph.nodes t.Topology.graph in
      (* A representative graph from this tuple contains all three
         endpoints (node ids are entity ids in the registered graph only
         for the first registration, so check size instead). *)
      Alcotest.(check bool) "at least 3 nodes" true (List.length ids >= 3))
    tids

let test_nquery_disconnected_tuple_empty () =
  let _, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  (* Protein 32 and DNA 742 are unrelated; adding Unigene 188 (related to
     742 only) cannot connect 32. *)
  let tids =
    Nquery.tuple_topologies ctx ~types:[| "Protein"; "Unigene"; "DNA" |] ~entities:[| 32; 188; 742 |]
  in
  Alcotest.(check (list int)) "no spanning topology" [] tids

let test_nquery_run_finds_triples () =
  let cat, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let endpoints =
    [
      Query.keyword cat "Protein" ~col:"desc" ~kw:"enzyme";
      Query.endpoint cat "Unigene";
      Query.equals cat "DNA" ~col:"type" ~value:(Value.Str "mRNA");
    ]
  in
  let r = Nquery.run ctx ~endpoints () in
  Alcotest.(check bool) "rows found" true (r.Nquery.rows <> []);
  Alcotest.(check bool) "not truncated" false r.Nquery.truncated;
  (* (78, 103, 215) must be among the qualifying tuples. *)
  Alcotest.(check bool) "contains (78,103,215)" true
    (List.exists (fun (row : Nquery.row) -> row.Nquery.entities = [| 78; 103; 215 |]) r.Nquery.rows)

let test_nquery_truncation () =
  let cat, engine = paper_engine () in
  let ctx = engine.Engine.ctx in
  let endpoints = [ Query.endpoint cat "Protein"; Query.endpoint cat "Unigene"; Query.endpoint cat "DNA" ] in
  let r = Nquery.run ctx ~endpoints ~max_tuples:1 () in
  Alcotest.(check bool) "truncated" true r.Nquery.truncated

(* --- comparison primitives ------------------------------------------------ *)

let test_compare_diff () =
  let d = Compare.diff ~left:[ 3; 1; 2 ] ~right:[ 2; 4 ] in
  Alcotest.(check (list int)) "common" [ 2 ] d.Compare.common;
  Alcotest.(check (list int)) "only left" [ 1; 3 ] d.Compare.only_left;
  Alcotest.(check (list int)) "only right" [ 4 ] d.Compare.only_right

let test_compare_subsumption_on_paper_topologies () =
  let cat, engine = paper_engine () in
  let registry = engine.Engine.ctx.Context.registry in
  let q = Query.q1 cat in
  let r = Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)) in
  let tids = List.map fst r.Request.ranked in
  (* T3 (the P-U-D + P-U-P-D union sharing the Unigene) subsumes the plain
     P-U-D path T2. *)
  let find p = List.find p (List.map (Engine.topology engine) tids) in
  let t2 = find (fun t -> Topology.is_single_path t && t.Topology.n_edges = 2) in
  let t3 = find (fun t -> (not (Topology.is_single_path t)) && t.Topology.n_nodes = 4) in
  let maximal tids = Compare.maximal registry tids in
  Alcotest.(check (list int)) "T3 subsumes T2, not the reverse" [ t3.Topology.tid ]
    (maximal [ t3.Topology.tid; t2.Topology.tid ]);
  Alcotest.(check (list int)) "no topology strictly subsumes itself" [ t2.Topology.tid ]
    (maximal [ t2.Topology.tid ])

let test_compare_maximal () =
  let cat, engine = paper_engine () in
  let registry = engine.Engine.ctx.Context.registry in
  let q = Query.q1 cat in
  let r = Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)) in
  let tids = List.map fst r.Request.ranked in
  let maximal = Compare.maximal registry tids in
  (* T2 (P-U-D) is subsumed by T3 and T4, T1 (P-D) by nothing in the result
     set. *)
  let t2 =
    List.find
      (fun tid ->
        let t = Engine.topology engine tid in
        Topology.is_single_path t && t.Topology.n_edges = 2)
      tids
  in
  Alcotest.(check bool) "T2 not maximal" false (List.mem t2 maximal);
  Alcotest.(check bool) "maximal non-empty" true (maximal <> [])

(* --- persistence ----------------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "toposearch" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun file -> Sys.remove (Filename.concat dir file)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let test_dump_roundtrip_paper_db () =
  with_temp_dir (fun dir ->
      let original = Biozon.Paper_db.catalog () in
      Topo_sql.Dump.save original ~dir;
      let loaded = Topo_sql.Dump.load ~dir in
      List.iter
        (fun table ->
          let name = Topo_sql.Table.name table in
          let reloaded = Topo_sql.Catalog.find loaded name in
          Alcotest.(check int) ("rows of " ^ name) (Topo_sql.Table.row_count table)
            (Topo_sql.Table.row_count reloaded);
          Alcotest.(check (option string)) ("pk of " ^ name) (Topo_sql.Table.primary_key table)
            (Topo_sql.Table.primary_key reloaded);
          Topo_sql.Table.iter
            (fun i tuple ->
              Alcotest.(check bool) "tuple equal" true
                (Topo_sql.Tuple.equal tuple (Topo_sql.Table.get reloaded i)))
            table)
        (Topo_sql.Catalog.tables original))

(* One table through a catalog save and load. *)
let dump_roundtrip ~dir table =
  let catalog = Topo_sql.Catalog.create () in
  Topo_sql.Catalog.add catalog table;
  Topo_sql.Dump.save catalog ~dir;
  Topo_sql.Catalog.find (Topo_sql.Dump.load ~dir) (Topo_sql.Table.name table)

let test_dump_roundtrip_values () =
  with_temp_dir (fun dir ->
      let schema =
        Topo_sql.Schema.make
          [
            { Topo_sql.Schema.name = "a"; ty = Topo_sql.Schema.TInt };
            { Topo_sql.Schema.name = "b"; ty = Topo_sql.Schema.TFloat };
            { Topo_sql.Schema.name = "c"; ty = Topo_sql.Schema.TStr };
          ]
      in
      let table = Topo_sql.Table.create ~name:"tricky" ~schema () in
      Topo_sql.Table.insert_values table
        [ Value.Int (-42); Value.Float 0.1; Value.Str "tab\there\nnewline\\backslash" ];
      Topo_sql.Table.insert_values table [ Value.Null; Value.Null; Value.Null ];
      Topo_sql.Table.insert_values table [ Value.Int max_int; Value.Float infinity; Value.Str "\\N" ];
      let loaded = dump_roundtrip ~dir table in
      Topo_sql.Table.iter
        (fun i tuple ->
          Alcotest.(check bool) (Printf.sprintf "row %d" i) true
            (Topo_sql.Tuple.equal tuple (Topo_sql.Table.get loaded i)))
        table)

let test_dump_engine_on_loaded_catalog () =
  (* A reloaded catalog supports the full pipeline. *)
  with_temp_dir (fun dir ->
      Topo_sql.Dump.save (Biozon.Paper_db.catalog ()) ~dir;
      let catalog = Topo_sql.Dump.load ~dir in
      let engine = Engine.build catalog ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
      let r =
        Request.get_done
          (Engine.run_request engine (Request.make Engine.Fast_top (Query.q1 catalog)))
      in
      Alcotest.(check int) "four topologies" 4 (List.length r.Request.ranked))

let test_dump_malformed_rejected () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "bad.tbl" in
      let oc = open_out path in
      output_string oc "not a table file\n";
      close_out oc;
      match Topo_sql.Dump.load ~dir with
      | exception (Failure _) -> ()
      | _ -> Alcotest.fail "expected Failure")

let prop_dump_string_escaping =
  QCheck.Test.make ~name:"dump escaping roundtrips strings" ~count:300 QCheck.string (fun s ->
      (* Escape/unescape through a full table save/load. *)
      QCheck.assume (not (String.contains s '\r'));
      with_temp_dir (fun dir ->
          let schema = Topo_sql.Schema.make [ { Topo_sql.Schema.name = "s"; ty = Topo_sql.Schema.TStr } ] in
          let table = Topo_sql.Table.create ~name:"t" ~schema () in
          Topo_sql.Table.insert_values table [ Value.Str s ];
          let loaded = dump_roundtrip ~dir table in
          Value.equal (Topo_sql.Table.get loaded 0).(0) (Value.Str s)))

let suites =
  [
    ( "ext.nquery",
      [
        Alcotest.test_case "rejects single endpoint" `Quick test_nquery_rejects_single_endpoint;
        Alcotest.test_case "2-ary matches pairwise" `Quick test_nquery_two_endpoints_matches_pairwise;
        Alcotest.test_case "triple on paper db" `Quick test_nquery_triple_on_paper_db;
        Alcotest.test_case "disconnected tuple" `Quick test_nquery_disconnected_tuple_empty;
        Alcotest.test_case "run finds triples" `Quick test_nquery_run_finds_triples;
        Alcotest.test_case "truncation" `Quick test_nquery_truncation;
      ] );
    ( "ext.compare",
      [
        Alcotest.test_case "diff" `Quick test_compare_diff;
        Alcotest.test_case "subsumption" `Quick test_compare_subsumption_on_paper_topologies;
        Alcotest.test_case "maximal" `Quick test_compare_maximal;
      ] );
    ( "ext.dump",
      [
        Alcotest.test_case "paper db roundtrip" `Quick test_dump_roundtrip_paper_db;
        Alcotest.test_case "tricky values roundtrip" `Quick test_dump_roundtrip_values;
        Alcotest.test_case "engine on loaded catalog" `Quick test_dump_engine_on_loaded_catalog;
        Alcotest.test_case "malformed rejected" `Quick test_dump_malformed_rejected;
        QCheck_alcotest.to_alcotest prop_dump_string_escaping;
      ] );
  ]
