(* Deep tests of the Volcano operator protocol: re-open semantics, group
   propagation through operator stacks, DGJ corner cases (empty groups,
   advance at boundaries), and the baseline/report presentation layers. *)

open Topo_sql

let v_int n = Value.Int n

let schema1 = Schema.make [ { Schema.name = "x"; ty = Schema.TInt } ]

let tuples_of ints = Array.of_list (List.map (fun n -> [| v_int n |]) ints)

(* --- re-open semantics -------------------------------------------------- *)

let drain it = Iterator.to_list it |> List.map (fun t -> Value.as_int t.(0))

let test_reopen_scan () =
  let cat = Catalog.create () in
  let t = Catalog.create_table cat ~name:"T" ~schema:schema1 () in
  List.iter (fun n -> Table.insert_values t [ v_int n ]) [ 1; 2; 3 ];
  let it = Op_scan.seq t in
  Alcotest.(check (list int)) "first" [ 1; 2; 3 ] (drain it);
  Alcotest.(check (list int)) "second (reopened)" [ 1; 2; 3 ] (drain it)

let test_reopen_limit () =
  let it = Op_basic.limit 2 (Iterator.of_tuples schema1 (tuples_of [ 1; 2; 3; 4 ])) in
  Alcotest.(check (list int)) "first" [ 1; 2 ] (drain it);
  Alcotest.(check (list int)) "reopened resets counter" [ 1; 2 ] (drain it)

let test_reopen_distinct () =
  let it = Op_basic.distinct (Iterator.of_tuples schema1 (tuples_of [ 1; 1; 2 ])) in
  Alcotest.(check (list int)) "first" [ 1; 2 ] (drain it);
  Alcotest.(check (list int)) "reopened resets seen-set" [ 1; 2 ] (drain it)

let test_reopen_sort () =
  let it = Op_basic.sort (Iterator.of_tuples schema1 (tuples_of [ 3; 1; 2 ])) ~by:[ (0, false) ] in
  Alcotest.(check (list int)) "first" [ 1; 2; 3 ] (drain it);
  Alcotest.(check (list int)) "second" [ 1; 2; 3 ] (drain it)

let test_reopen_union () =
  let a () = Iterator.of_tuples schema1 (tuples_of [ 1; 2 ]) in
  let b () = Iterator.of_tuples schema1 (tuples_of [ 2; 3 ]) in
  let it = Op_basic.union (a ()) (b ()) in
  Alcotest.(check (list int)) "first" [ 1; 2; 3 ] (drain it);
  Alcotest.(check (list int)) "second" [ 1; 2; 3 ] (drain it)

let test_sort_stability () =
  let schema2 =
    Schema.make [ { Schema.name = "k"; ty = Schema.TInt }; { Schema.name = "v"; ty = Schema.TInt } ]
  in
  let tuples = Array.of_list (List.map (fun (k, v) -> [| v_int k; v_int v |]) [ (1, 10); (0, 20); (1, 30); (0, 40) ]) in
  let it = Op_basic.sort (Iterator.of_tuples schema2 tuples) ~by:[ (0, false) ] in
  let out = Iterator.to_list it |> List.map (fun t -> (Value.as_int t.(0), Value.as_int t.(1))) in
  Alcotest.(check (list (pair int int))) "stable" [ (0, 20); (0, 40); (1, 10); (1, 30) ] out

(* --- DGJ corner cases ------------------------------------------------------ *)

(* Group table with one group having NO fact rows, one group whose rows all
   fail the predicate, one group with matches. *)
let gap_catalog () =
  let cat = Catalog.create () in
  let g =
    Catalog.create_table cat ~name:"G"
      ~schema:(Schema.make [ { Schema.name = "TID"; ty = Schema.TInt }; { Schema.name = "score"; ty = Schema.TFloat } ])
      ~primary_key:"TID" ()
  in
  let f =
    Catalog.create_table cat ~name:"F"
      ~schema:(Schema.make [ { Schema.name = "TID"; ty = Schema.TInt }; { Schema.name = "v"; ty = Schema.TInt } ])
      ()
  in
  List.iter (fun (tid, s) -> Table.insert_values g [ v_int tid; Value.Float s ]) [ (1, 9.0); (2, 8.0); (3, 7.0) ];
  (* TID 1: no rows at all.  TID 2: rows failing pred.  TID 3: a match. *)
  List.iter (fun (tid, v) -> Table.insert_values f [ v_int tid; v_int v ]) [ (2, 0); (2, 0); (3, 0); (3, 1) ];
  cat

let gap_stack cat impl =
  let g = Catalog.find cat "G" in
  let grouped = Op_scan.grouped_by_tuple (Op_scan.ordered g ~desc:true ~cols:[ "score" ]) in
  let pred = Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (v_int 1)) in
  let mk =
    match impl with
    | `I ->
        fun ~outer ~table ~table_cols ~outer_cols ?pred ?residual () ->
          Op_dgj.idgj ~outer ~table ~table_cols ~outer_cols ?pred ?residual ()
    | `H -> Op_dgj.hdgj
  in
  mk ~outer:grouped ~table:(Catalog.find cat "F") ~table_cols:[ "TID" ] ~outer_cols:[| 0 |] ~pred ()

let test_dgj_skips_empty_and_failing_groups impl () =
  let cat = gap_catalog () in
  let witnesses = Op_dgj.first_match_per_group (gap_stack cat impl) ~k:5 in
  let tids = List.map (fun (_, t) -> Value.as_int t.(0)) witnesses in
  Alcotest.(check (list int)) "only TID 3 yields" [ 3 ] tids

let test_dgj_advance_without_next () =
  (* Calling advance_group before any next() must be harmless. *)
  let cat = gap_catalog () in
  let it = gap_stack cat `I in
  it.Iterator.open_ ();
  it.Iterator.advance_group ();
  let rest = ref 0 in
  let rec loop () = match it.Iterator.next () with Some _ -> incr rest; loop () | None -> () in
  loop ();
  it.Iterator.close ();
  Alcotest.(check int) "still produces the match" 1 !rest

let test_dgj_group_ids_monotone impl () =
  let cat = gap_catalog () in
  let it = gap_stack cat impl in
  it.Iterator.open_ ();
  let last = ref (-1) in
  let rec loop () =
    match it.Iterator.next () with
    | Some _ ->
        let g = it.Iterator.last_group () in
        Alcotest.(check bool) "monotone" true (g >= !last);
        last := g;
        loop ()
    | None -> ()
  in
  loop ();
  it.Iterator.close ()

let test_hdgj_rescans_inner () =
  (* HDGJ's inner re-scan is observable through the scan counter. *)
  let cat = gap_catalog () in
  let _, h_work = Iterator.Counters.with_scope (fun () -> Iterator.to_list (gap_stack cat `H)) in
  let h_scans = h_work.Iterator.Counters.rows_scanned in
  let _, i_work = Iterator.Counters.with_scope (fun () -> Iterator.to_list (gap_stack cat `I)) in
  let i_scans = i_work.Iterator.Counters.rows_scanned in
  Alcotest.(check bool)
    (Printf.sprintf "HDGJ scans more rows (%d > %d)" h_scans i_scans)
    true (h_scans > i_scans)

(* --- merge join ----------------------------------------------------------- *)

let mj_catalog () =
  let cat = Catalog.create () in
  let l =
    Catalog.create_table cat ~name:"L"
      ~schema:(Schema.make [ { Schema.name = "k"; ty = Schema.TInt }; { Schema.name = "lv"; ty = Schema.TInt } ])
      ()
  in
  let r =
    Catalog.create_table cat ~name:"R"
      ~schema:(Schema.make [ { Schema.name = "k"; ty = Schema.TInt }; { Schema.name = "rv"; ty = Schema.TInt } ])
      ()
  in
  List.iter (fun (k, v) -> Table.insert_values l [ v_int k; v_int v ]) [ (1, 10); (2, 20); (2, 21); (4, 40) ];
  List.iter (fun (k, v) -> Table.insert_values r [ v_int k; v_int v ]) [ (2, 200); (2, 201); (3, 300); (4, 400) ];
  cat

let test_merge_join_matches_hash_join () =
  let cat = mj_catalog () in
  let sorted name = Op_basic.sort (Op_scan.seq (Catalog.find cat name)) ~by:[ (0, false) ] in
  let normalize it =
    Iterator.to_list it
    |> List.map (fun t -> (Value.as_int t.(0), Value.as_int t.(1), Value.as_int t.(2), Value.as_int t.(3)))
    |> List.sort compare
  in
  let mj =
    Op_join.merge_join ~left:(sorted "L") ~right:(sorted "R") ~left_cols:[| 0 |] ~right_cols:[| 0 |] ()
  in
  let hj =
    Op_join.hash_join ~left:(sorted "L") ~right:(sorted "R") ~left_cols:[| 0 |] ~right_cols:[| 0 |] ()
  in
  let m = normalize mj and h = normalize hj in
  Alcotest.(check int) "cross product per key" 5 (List.length m);
  Alcotest.(check bool) "merge = hash" true (m = h)

let test_merge_join_preserves_left_order () =
  let cat = mj_catalog () in
  let sorted name = Op_basic.sort (Op_scan.seq (Catalog.find cat name)) ~by:[ (0, false) ] in
  let mj =
    Op_join.merge_join ~left:(sorted "L") ~right:(sorted "R") ~left_cols:[| 0 |] ~right_cols:[| 0 |] ()
  in
  let keys = Iterator.to_list mj |> List.map (fun t -> Value.as_int t.(0)) in
  Alcotest.(check (list int)) "ascending left order" (List.sort compare keys) keys

let prop_merge_equals_hash =
  QCheck.Test.make ~name:"merge join = hash join on random inputs" ~count:100
    QCheck.(pair (small_list (pair (int_range 0 5) small_int)) (small_list (pair (int_range 0 5) small_int)))
    (fun (ls, rs) ->
      let mk rows =
        let schema =
          Schema.make [ { Schema.name = "k"; ty = Schema.TInt }; { Schema.name = "v"; ty = Schema.TInt } ]
        in
        let sorted = List.sort compare rows in
        Iterator.of_tuples schema (Array.of_list (List.map (fun (k, v) -> [| v_int k; v_int v |]) sorted))
      in
      let collect it =
        Iterator.to_list it
        |> List.map (fun t -> Array.to_list (Array.map Value.to_string t))
        |> List.sort compare
      in
      let mj = Op_join.merge_join ~left:(mk ls) ~right:(mk rs) ~left_cols:[| 0 |] ~right_cols:[| 0 |] () in
      let hj = Op_join.hash_join ~left:(mk ls) ~right:(mk rs) ~left_cols:[| 0 |] ~right_cols:[| 0 |] () in
      collect mj = collect hj)

(* --- physical plan schema/lowering ------------------------------------------ *)

let test_physical_schema_qualification () =
  let cat = gap_catalog () in
  let plan = Physical.Scan { table = "G"; alias = Some "Grp"; pred = None } in
  let schema = Physical.schema cat plan in
  Alcotest.(check int) "TID position" 0 (Schema.index_of schema "Grp.TID")

let test_physical_explain_nonempty () =
  let cat = gap_catalog () in
  let plan =
    Physical.Limit
      ( 1,
        Physical.Sort
          {
            input =
              Physical.HashJoin
                {
                  left = Physical.Scan { table = "G"; alias = Some "g"; pred = None };
                  right = Physical.Scan { table = "F"; alias = Some "f"; pred = None };
                  left_cols = [| 0 |];
                  right_cols = [| 0 |];
                  residual = None;
                };
            by = [ (1, true) ];
          } )
  in
  let text = Physical.explain plan in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (let rec find i =
           i + String.length needle <= String.length text
           && (String.sub text i (String.length needle) = needle || find (i + 1))
         in
         find 0))
    [ "Limit"; "Sort"; "HashJoin"; "SeqScan" ];
  ignore cat

(* --- baseline ---------------------------------------------------------------- *)

let test_baseline_reproduces_figure4 () =
  let cat = Biozon.Paper_db.catalog () in
  let engine = Topo_core.Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  let q = Topo_core.Query.q1 cat in
  let r = Topo_core.Baseline.isolated_paths engine.Topo_core.Engine.ctx q () in
  let paths =
    List.map (fun (p : Topo_core.Baseline.path_result) -> Array.to_list p.Topo_core.Baseline.nodes) r.Topo_core.Baseline.paths
    |> List.sort compare
  in
  (* Figure 4: L1..L6. *)
  Alcotest.(check (list (list int)))
    "exactly the six isolated results"
    (List.sort compare
       [
         [ 32; 214 ];
         [ 44; 188; 742 ];
         [ 44; 194; 742 ];
         [ 78; 103; 215 ];
         [ 78; 103; 34; 215 ];
         [ 78; 150; 215 ];
       ])
    (List.sort compare paths)

let test_baseline_ranked_by_length () =
  let cat = Biozon.Paper_db.catalog () in
  let engine = Topo_core.Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  let r = Topo_core.Baseline.isolated_paths engine.Topo_core.Engine.ctx (Topo_core.Query.q1 cat) () in
  let lengths = List.map (fun (p : Topo_core.Baseline.path_result) -> p.Topo_core.Baseline.length) r.Topo_core.Baseline.paths in
  let sorted = List.sort compare lengths in
  Alcotest.(check (list int)) "ascending lengths" sorted lengths

let test_baseline_truncation () =
  let cat = Biozon.Paper_db.catalog () in
  let engine = Topo_core.Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  let r =
    Topo_core.Baseline.isolated_paths engine.Topo_core.Engine.ctx (Topo_core.Query.q1 cat) ~max_results:2 ()
  in
  Alcotest.(check bool) "truncated" true r.Topo_core.Baseline.truncated;
  Alcotest.(check int) "capped" 2 r.Topo_core.Baseline.total

(* --- report -------------------------------------------------------------------- *)

let test_report_renders_everything () =
  let cat = Biozon.Paper_db.catalog () in
  let engine = Topo_core.Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  let q = Topo_core.Query.q1 cat in
  let result =
    Topo_core.(Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)))
  in
  let text = Topo_core.Report.render engine q result () in
  let contains needle =
    let rec find i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || find (i + 1))
    in
    find 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains needle))
    [ "enzyme"; "Protein 78"; "DNA 215"; "witness"; "TID" ]

let test_report_caps_instances () =
  let cat = Biozon.Paper_db.catalog () in
  let engine = Topo_core.Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  let q = Topo_core.Query.make (Topo_core.Query.endpoint cat "Protein") (Topo_core.Query.endpoint cat "DNA") in
  let result =
    Topo_core.(Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)))
  in
  let text =
    Topo_core.Report.render engine q result
      ~options:{ Topo_core.Report.max_instances = 0; show_witness = false }
      ()
  in
  Alcotest.(check bool) "mentions hidden instances" true
    (let needle = "more instance pair" in
     let rec find i =
       i + String.length needle <= String.length text
       && (String.sub text i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let suites =
  [
    ( "ops.protocol",
      [
        Alcotest.test_case "re-open scan" `Quick test_reopen_scan;
        Alcotest.test_case "re-open limit" `Quick test_reopen_limit;
        Alcotest.test_case "re-open distinct" `Quick test_reopen_distinct;
        Alcotest.test_case "re-open sort" `Quick test_reopen_sort;
        Alcotest.test_case "re-open union" `Quick test_reopen_union;
        Alcotest.test_case "sort stability" `Quick test_sort_stability;
      ] );
    ( "ops.dgj_corner",
      [
        Alcotest.test_case "IDGJ skips empty/failing groups" `Quick (test_dgj_skips_empty_and_failing_groups `I);
        Alcotest.test_case "HDGJ skips empty/failing groups" `Quick (test_dgj_skips_empty_and_failing_groups `H);
        Alcotest.test_case "advance before next" `Quick test_dgj_advance_without_next;
        Alcotest.test_case "IDGJ group ids monotone" `Quick (test_dgj_group_ids_monotone `I);
        Alcotest.test_case "HDGJ group ids monotone" `Quick (test_dgj_group_ids_monotone `H);
        Alcotest.test_case "HDGJ re-scans inner" `Quick test_hdgj_rescans_inner;
      ] );
    ( "ops.merge_join",
      [
        Alcotest.test_case "matches hash join" `Quick test_merge_join_matches_hash_join;
        Alcotest.test_case "preserves left order" `Quick test_merge_join_preserves_left_order;
        QCheck_alcotest.to_alcotest prop_merge_equals_hash;
      ] );
    ( "ops.physical",
      [
        Alcotest.test_case "schema qualification" `Quick test_physical_schema_qualification;
        Alcotest.test_case "explain" `Quick test_physical_explain_nonempty;
      ] );
    ( "ops.baseline",
      [
        Alcotest.test_case "Figure 4 exactly" `Quick test_baseline_reproduces_figure4;
        Alcotest.test_case "ranked by length" `Quick test_baseline_ranked_by_length;
        Alcotest.test_case "truncation" `Quick test_baseline_truncation;
      ] );
    ( "ops.report",
      [
        Alcotest.test_case "renders everything" `Quick test_report_renders_everything;
        Alcotest.test_case "caps instances" `Quick test_report_caps_instances;
      ] );
  ]
