(* The plan verifier: clean plans pass, every mutation-corrupted plan is
   rejected with the right violation kind, and the runtime protocol checker
   catches iterator misuse. *)

open Topo_sql
module Engine = Topo_core.Engine
module Request = Topo_core.Request
module Query = Topo_core.Query

(* --- fixture ------------------------------------------------------------- *)

(* G(TID, score) group relation, F(TID, E) fact, D(ID, v, tag) dimension
   with a string column for type-mismatch corruptions. *)
let mini_catalog () =
  let cat = Catalog.create () in
  let g =
    Catalog.create_table cat ~name:"G"
      ~schema:
        (Schema.make
           [ { Schema.name = "TID"; ty = Schema.TInt }; { Schema.name = "score"; ty = Schema.TFloat } ])
      ~primary_key:"TID" ()
  in
  let f =
    Catalog.create_table cat ~name:"F"
      ~schema:
        (Schema.make [ { Schema.name = "TID"; ty = Schema.TInt }; { Schema.name = "E"; ty = Schema.TInt } ])
      ()
  in
  let d =
    Catalog.create_table cat ~name:"D"
      ~schema:
        (Schema.make
           [
             { Schema.name = "ID"; ty = Schema.TInt };
             { Schema.name = "v"; ty = Schema.TInt };
             { Schema.name = "tag"; ty = Schema.TStr };
           ])
      ~primary_key:"ID" ()
  in
  for tid = 1 to 5 do
    Table.insert_values g [ Value.Int tid; Value.Float (float_of_int (tid * 10)) ];
    Table.insert_values f [ Value.Int tid; Value.Int (100 + tid) ];
    Table.insert_values d [ Value.Int (100 + tid); Value.Int (tid mod 2); Value.Str "x" ]
  done;
  cat

let scan t = Physical.Scan { table = t; alias = None; pred = None }

let has_kind vs pred = List.exists (fun (v : Plan_check.violation) -> pred v.Plan_check.kind) vs

let check_rejects name plan cat pred =
  let vs = Plan_check.verify cat plan in
  Alcotest.(check bool) (name ^ ": flagged") true (vs <> []);
  Alcotest.(check bool)
    (name ^ ": right kind in " ^ Plan_check.report vs)
    true (has_kind vs pred)

(* --- clean plans verify ---------------------------------------------------- *)

let test_clean_plans_verify () =
  let cat = mini_catalog () in
  let plans =
    [
      scan "G";
      Physical.Filter { input = scan "G"; pred = Expr.Cmp (Expr.Gt, Expr.Col 1, Expr.Const (Value.Float 20.0)) };
      Physical.HashJoin
        { left = scan "G"; right = scan "F"; left_cols = [| 0 |]; right_cols = [| 0 |]; residual = None };
      Physical.MergeJoin
        {
          left = Physical.Sort { input = scan "G"; by = [ (0, false) ] };
          right = Physical.Sort { input = scan "F"; by = [ (0, false) ] };
          left_cols = [| 0 |];
          right_cols = [| 0 |];
          residual = None;
        };
      Physical.Idgj
        {
          left =
            Physical.OrderedScan
              {
                table = "G";
                alias = Some "G";
                order_cols = [ "score" ];
                desc = true;
                pred = None;
                grouped = true;
              };
          table = "F";
          alias = Some "F";
          table_cols = [ "TID" ];
          left_cols = [| 0 |];
          pred = None;
          residual = None;
        };
      Physical.Limit (3, Physical.Distinct (Physical.Project { input = scan "D"; cols = [ 0; 1 ] }));
    ]
  in
  List.iter
    (fun plan ->
      Alcotest.(check string) "no violations" "" (Plan_check.report (Plan_check.verify cat plan)))
    plans

(* --- mutation tests: each corruption caught with the right kind ------------ *)

let test_mutation_dropped_grouped_flag () =
  let cat = mini_catalog () in
  let plan =
    Physical.Idgj
      {
        left =
          Physical.OrderedScan
            { table = "G"; alias = None; order_cols = [ "score" ]; desc = true; pred = None; grouped = false };
        table = "F";
        alias = None;
        table_cols = [ "TID" ];
        left_cols = [| 0 |];
        pred = None;
        residual = None;
      }
  in
  check_rejects "grouped flag dropped" plan cat (function Plan_check.Not_grouped -> true | _ -> false)

let test_mutation_misordered_merge_input () =
  let cat = mini_catalog () in
  (* Left input arrives in heap order, not sorted on the key. *)
  let plan =
    Physical.MergeJoin
      {
        left = scan "G";
        right = Physical.Sort { input = scan "F"; by = [ (0, false) ] };
        left_cols = [| 0 |];
        right_cols = [| 0 |];
        residual = None;
      }
  in
  check_rejects "unsorted merge input" plan cat (function
    | Plan_check.Not_sorted { side = Plan_check.Left; _ } -> true
    | _ -> false);
  (* Sorting on the wrong column is just as bad. *)
  let plan =
    Physical.MergeJoin
      {
        left = Physical.Sort { input = scan "G"; by = [ (1, false) ] };
        right = Physical.Sort { input = scan "F"; by = [ (0, false) ] };
        left_cols = [| 0 |];
        right_cols = [| 0 |];
        residual = None;
      }
  in
  check_rejects "wrong sort column" plan cat (function
    | Plan_check.Not_sorted { side = Plan_check.Left; _ } -> true
    | _ -> false)

let test_mutation_swapped_key_arrays () =
  let cat = mini_catalog () in
  (* Keys meant as (left #0 = right #0) corrupted so the left side indexes
     past its input (as if left/right arrays were swapped after a join
     reorder): G has arity 2, position 3 only exists in the concatenation. *)
  let plan =
    Physical.HashJoin
      { left = scan "G"; right = scan "F"; left_cols = [| 3 |]; right_cols = [| 0 |]; residual = None }
  in
  check_rejects "out-of-bounds key" plan cat (function
    | Plan_check.Column_out_of_bounds { pos = 3; _ } -> true
    | _ -> false)

let test_mutation_key_type_mismatch () =
  let cat = mini_catalog () in
  (* G.TID (int) joined against D.tag (str). *)
  let plan =
    Physical.HashJoin
      { left = scan "G"; right = scan "D"; left_cols = [| 0 |]; right_cols = [| 2 |]; residual = None }
  in
  check_rejects "str/int key" plan cat (function Plan_check.Type_mismatch _ -> true | _ -> false)

let test_mutation_key_arity_and_empty () =
  let cat = mini_catalog () in
  let mk left_cols right_cols =
    Physical.HashJoin { left = scan "G"; right = scan "F"; left_cols; right_cols; residual = None }
  in
  check_rejects "arity mismatch" (mk [| 0 |] [| 0; 1 |]) cat (function
    | Plan_check.Key_arity_mismatch { left = 1; right = 2 } -> true
    | _ -> false);
  check_rejects "empty key" (mk [||] [||]) cat (function
    | Plan_check.Empty_join_key -> true
    | _ -> false)

let test_mutation_unknown_table_and_column () =
  let cat = mini_catalog () in
  check_rejects "unknown table" (scan "Nope") cat (function
    | Plan_check.Unknown_table "Nope" -> true
    | _ -> false);
  let plan =
    Physical.OrderedScan
      { table = "G"; alias = None; order_cols = [ "nope" ]; desc = false; pred = None; grouped = false }
  in
  check_rejects "unknown order column" plan cat (function
    | Plan_check.Unknown_index_column { table = "G"; column = "nope" } -> true
    | _ -> false);
  let plan =
    Physical.IndexNL
      {
        left = scan "G";
        table = "F";
        alias = None;
        table_cols = [ "nope" ];
        left_cols = [| 0 |];
        pred = None;
        residual = None;
      }
  in
  check_rejects "unknown index column" plan cat (function
    | Plan_check.Unknown_index_column { table = "F"; column = "nope" } -> true
    | _ -> false)

let test_mutation_misc_nodes () =
  let cat = mini_catalog () in
  check_rejects "project out of bounds"
    (Physical.Project { input = scan "G"; cols = [ 0; 7 ] })
    cat
    (function Plan_check.Column_out_of_bounds { pos = 7; _ } -> true | _ -> false);
  check_rejects "negative limit"
    (Physical.Limit (-1, scan "G"))
    cat
    (function Plan_check.Negative_limit (-1) -> true | _ -> false);
  check_rejects "union arity"
    (Physical.Union (scan "G", Physical.Project { input = scan "F"; cols = [ 0 ] }))
    cat
    (function Plan_check.Union_arity_mismatch { left = 2; right = 1 } -> true | _ -> false);
  check_rejects "probe key arity"
    (Physical.IndexProbe
       { table = "D"; alias = None; cols = [ "ID" ]; key = [| Value.Int 1; Value.Int 2 |]; pred = None })
    cat
    (function Plan_check.Probe_key_arity_mismatch { cols = 1; key = 2 } -> true | _ -> false);
  check_rejects "filter references missing column"
    (Physical.Filter { input = scan "G"; pred = Expr.Cmp (Expr.Eq, Expr.Col 9, Expr.Const (Value.Int 1)) })
    cat
    (function Plan_check.Column_out_of_bounds { pos = 9; _ } -> true | _ -> false);
  check_rejects "ct() on a numeric column"
    (Physical.Filter { input = scan "G"; pred = Expr.Contains (Expr.Col 0, "enzyme") })
    cat
    (function Plan_check.Type_mismatch _ -> true | _ -> false)

let test_violation_paths_name_the_node () =
  let cat = mini_catalog () in
  let plan =
    Physical.Limit
      ( 5,
        Physical.HashJoin
          {
            left = scan "G";
            right = Physical.Project { input = scan "F"; cols = [ 4 ] };
            left_cols = [| 0 |];
            right_cols = [| 0 |];
            residual = None;
          } )
  in
  match Plan_check.verify cat plan with
  | [] -> Alcotest.fail "expected a violation"
  | v :: _ ->
      Alcotest.(check string) "node" "Project" v.Plan_check.node;
      Alcotest.(check (list string)) "path" [ "input"; "right" ] v.Plan_check.path

(* --- property lattice ------------------------------------------------------ *)

let test_properties_lattice () =
  let cat = mini_catalog () in
  let ordered grouped =
    Physical.OrderedScan
      { table = "G"; alias = None; order_cols = [ "score" ]; desc = true; pred = None; grouped }
  in
  let p = Plan_check.properties cat (ordered true) in
  Alcotest.(check bool) "grouped source" true p.Plan_check.grouped;
  Alcotest.(check bool) "ordering = score desc" true (p.Plan_check.ordering = [ (1, true) ]);
  (* Filter preserves both; a regular join keeps the order but breaks groups. *)
  let filtered =
    Physical.Filter { input = ordered true; pred = Expr.Cmp (Expr.Gt, Expr.Col 0, Expr.Const (Value.Int 0)) }
  in
  let p = Plan_check.properties cat filtered in
  Alcotest.(check bool) "filter transparent" true (p.Plan_check.grouped && p.Plan_check.ordering = [ (1, true) ]);
  let joined =
    Physical.HashJoin
      { left = ordered true; right = scan "F"; left_cols = [| 0 |]; right_cols = [| 0 |]; residual = None }
  in
  let p = Plan_check.properties cat joined in
  Alcotest.(check bool) "join ungroups, keeps outer order" true
    ((not p.Plan_check.grouped) && p.Plan_check.ordering = [ (1, true) ]);
  (* DGJ operators forward the groups. *)
  let dgj =
    Physical.Hdgj
      {
        left = ordered true;
        table = "F";
        alias = None;
        table_cols = [ "TID" ];
        left_cols = [| 0 |];
        pred = None;
        residual = None;
      }
  in
  Alcotest.(check bool) "DGJ keeps groups" true (Plan_check.properties cat dgj).Plan_check.grouped;
  (* Sort establishes an order even over chaos. *)
  let p = Plan_check.properties cat (Physical.Sort { input = scan "G"; by = [ (0, false) ] }) in
  Alcotest.(check bool) "sort sets order" true (p.Plan_check.ordering = [ (0, false) ])

(* --- every optimizer-produced plan passes ---------------------------------- *)

let prop_optimizer_plans_verify =
  QCheck.Test.make ~name:"optimizer plans verify on random databases" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 1 8))
    (fun (seed, k) ->
      let cat = Suite_cost_optimizer.random_spec_db seed in
      let spec = Suite_cost_optimizer.spec_for k in
      (* ~check:true makes the optimizer verify every candidate it prices;
         any Plan_error fails the property. *)
      let decision = Optimizer.choose ~check:true cat spec in
      Plan_check.verify cat decision.Optimizer.plan = [])

(* --- all nine methods over the paper database with verify_plans ------------ *)

let test_all_methods_verify_on_paper_db () =
  let cat = Biozon.Paper_db.catalog () in
  let engine = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  let q = Query.make (Query.endpoint cat "Protein") (Query.endpoint cat "DNA") in
  List.iter
    (fun method_ ->
      let r =
        Request.get_done
          (Engine.run_request engine ~verify_plans:true (Request.make ~k:4 method_ q))
      in
      Alcotest.(check bool)
        (Engine.method_name method_ ^ " returns results under verification")
        true
        (r.Request.ranked <> []))
    Engine.all_methods

(* --- pipeline chains end where both layers say they do --------------------- *)

(* [plan]'s spine (the node, its left input, that input's left input, ...)
   down to the leaf, with each node's kernel site: the checker must report
   no drift, and kernels on and off must agree on results, counters and
   group ids. *)
let check_chain_ends name cat plan expected =
  let rec spine = function
    | Physical.HashJoin { left; _ } | Physical.IndexNL { left; _ } | Physical.Idgj { left; _ }
    | Physical.Hdgj { left; _ } ->
        left :: spine left
    | _ -> []
  in
  let sites = List.map (Physical.kernel_site cat) (plan :: spine plan) in
  let names = List.map (Option.fold ~none:"-" ~some:Physical.kernel_name) in
  Alcotest.(check (list string)) (name ^ ": sites, root first") expected (names sites);
  Alcotest.(check string) (name ^ ": checker agrees with the lowering") ""
    (Plan_check.report (Plan_check.verify cat plan));
  let run () =
    Iterator.Counters.with_scope (fun () ->
        let acc = ref [] in
        Iterator.iter
          (fun t g -> acc := (g, Tuple.to_string t) :: !acc)
          (Physical.lower_checked cat plan);
        List.rev !acc)
  in
  Alcotest.(check bool) (name ^ ": kernels on = off") true
    (Op_kernel.with_kernels false run = Op_kernel.with_kernels true run)

let f_join_d ?residual left =
  Physical.HashJoin
    { left; right = scan "D"; left_cols = [| 3 |]; right_cols = [| 0 |]; residual }

let g_scan ~grouped =
  Physical.OrderedScan
    { table = "G"; alias = None; order_cols = [ "score" ]; desc = true; pred = None; grouped }

let probe_f ?residual left =
  Physical.IndexNL
    { left; table = "F"; alias = None; table_cols = [ "TID" ]; left_cols = [| 0 |]; pred = None; residual }

let test_chain_ends_at_residual () =
  let cat = mini_catalog () in
  let below = probe_f (g_scan ~grouped:false) in
  let residual = Expr.Cmp (Expr.Le, Expr.Col 0, Expr.Col 2) in
  let cut = f_join_d ~residual below in
  let above =
    Physical.IndexNL
      { left = cut; table = "D"; alias = None; table_cols = [ "ID" ]; left_cols = [| 4 |]; pred = None; residual = None }
  in
  check_chain_ends "residual" cat above [ "-"; "-"; "index-nl-join"; "-" ]

let test_chain_ends_at_sort_build () =
  let cat = mini_catalog () in
  let below = probe_f (g_scan ~grouped:false) in
  let cut =
    Physical.HashJoin
      {
        left = below;
        right = Physical.Sort { input = scan "D"; by = [ (1, false) ] };
        left_cols = [| 3 |];
        right_cols = [| 0 |];
        residual = None;
      }
  in
  let above =
    Physical.HashJoin { left = cut; right = scan "F"; left_cols = [| 0 |]; right_cols = [| 0 |]; residual = None }
  in
  check_chain_ends "sort build side" cat above [ "-"; "-"; "index-nl-join"; "-" ]

let test_chain_ends_at_hdgj () =
  let cat = mini_catalog () in
  let dgj ~index left table col pos =
    let table_cols = [ col ] and left_cols = [| pos |] in
    if index then
      Physical.Idgj { left; table; alias = None; table_cols; left_cols; pred = None; residual = None }
    else Physical.Hdgj { left; table; alias = None; table_cols; left_cols; pred = None; residual = None }
  in
  let below = dgj ~index:true (g_scan ~grouped:true) "F" "TID" 0 in
  let cut = dgj ~index:false below "D" "ID" 3 in
  let above = dgj ~index:true cut "F" "TID" 0 in
  check_chain_ends "hdgj" cat above [ "-"; "-"; "idgj"; "-" ];
  let witnesses kernels =
    Op_kernel.with_kernels kernels (fun () ->
        Iterator.Counters.with_scope (fun () ->
            List.map
              (fun (g, t) -> (g, Tuple.to_string t))
              (Op_dgj.first_match_per_group (Physical.lower_checked cat above) ~k:3)))
  in
  Alcotest.(check bool) "hdgj: first match per group, kernels on = off" true
    (witnesses false = witnesses true)

(* Every serving plan of every method, lowered with pipelines under
   Iterator_check and re-verified by Plan_check, serves exactly what the
   unchecked run serves, counters included. *)
let test_nine_methods_checked_serve () =
  let engine =
    Engine.build
      (Biozon.Generator.generate
         (Biozon.Generator.scale 0.08 { Biozon.Generator.default with Biozon.Generator.seed = 11 }))
      ~pairs:[ ("Protein", "DNA") ]
      ~pruning_threshold:10 ()
  in
  let cat = engine.Engine.ctx.Topo_core.Context.catalog in
  let q =
    Query.make (Query.keyword cat "Protein" ~col:"desc" ~kw:"protein") (Query.endpoint cat "DNA")
  in
  let serve verify_plans =
    Topo_core.Serve.fingerprint
      (List.map
         (fun m -> Engine.run_request engine ~verify_plans (Request.make ~k:5 m q))
         Engine.all_methods)
  in
  Alcotest.(check string) "nine methods: verified = unverified" (serve false) (serve true)

(* --- SQL pipeline ---------------------------------------------------------- *)

let test_sql_lint_clean () =
  let cat = mini_catalog () in
  Alcotest.(check int) "no violations" 0
    (List.length (Sql.lint cat "SELECT G.TID, G.score FROM G WHERE G.score > 10"));
  Alcotest.(check int) "join lints clean" 0
    (List.length (Sql.lint cat "SELECT G.TID FROM G, F WHERE G.TID = F.TID AND F.E > 100"))

(* --- Iterator_check -------------------------------------------------------- *)

let one_col_schema = Schema.make [ { Schema.name = "x"; ty = Schema.TInt } ]

let test_protocol_violations_raise () =
  let fresh () = Iterator_check.wrap ~name:"t" (Iterator.of_tuples one_col_schema [| [| Value.Int 1 |] |]) in
  let expect_protocol name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected Protocol_error")
    | exception Iterator_check.Protocol_error _ -> ()
  in
  expect_protocol "next before open" (fun () -> (fresh ()).Iterator.next ());
  expect_protocol "advance before open" (fun () -> (fresh ()).Iterator.advance_group ());
  expect_protocol "double open" (fun () ->
      let it = fresh () in
      it.Iterator.open_ ();
      it.Iterator.open_ ());
  expect_protocol "next after close" (fun () ->
      let it = fresh () in
      it.Iterator.open_ ();
      it.Iterator.close ();
      it.Iterator.next ())

let test_protocol_allows_reopen_and_double_close () =
  let it = Iterator_check.wrap (Iterator.of_tuples one_col_schema [| [| Value.Int 1 |] |]) in
  it.Iterator.close ();
  (* close before open: Sort does this to inputs it materialized early *)
  it.Iterator.open_ ();
  Alcotest.(check bool) "tuple" true (it.Iterator.next () <> None);
  it.Iterator.close ();
  it.Iterator.close ();
  it.Iterator.open_ ();
  (* reopen: Distinct and Union re-drive inputs *)
  Alcotest.(check bool) "tuple again" true (it.Iterator.next () <> None);
  it.Iterator.close ()

let test_group_monotonicity_enforced () =
  (* A buggy grouped operator whose group ids go 1 then 0. *)
  let calls = ref 0 in
  let bad =
    {
      Iterator.schema = one_col_schema;
      open_ = (fun () -> calls := 0);
      next =
        (fun () ->
          incr calls;
          if !calls <= 2 then Some [| Value.Int !calls |] else None);
      close = (fun () -> ());
      advance_group = (fun () -> ());
      last_group = (fun () -> if !calls <= 1 then 1 else 0);
    }
  in
  let it = Iterator_check.wrap ~name:"bad" bad in
  it.Iterator.open_ ();
  ignore (it.Iterator.next ());
  (match it.Iterator.next () with
  | _ -> Alcotest.fail "expected Protocol_error on decreasing group"
  | exception Iterator_check.Protocol_error msg ->
      Alcotest.(check bool) "names the iterator" true (String.length msg > 0));
  it.Iterator.close ();
  (* The tracker resets across open cycles: group 1 then (reopen) group 1
     again is fine. *)
  it.Iterator.open_ ();
  ignore (it.Iterator.next ());
  it.Iterator.close ()

let test_lower_checked_matches_lower () =
  let cat = mini_catalog () in
  (* Distinct + Union + Sort exercise reopen and early close under the
     protocol checker. *)
  let plan =
    Physical.Sort
      { input = Physical.Distinct (Physical.Union (scan "F", scan "F")); by = [ (1, false) ] }
  in
  let expected = Physical.run cat plan in
  let got = Iterator.to_list (Physical.lower_checked cat plan) in
  Alcotest.(check int) "same cardinality" (List.length expected) (List.length got);
  Alcotest.(check bool) "same rows" true (expected = got)

let suites =
  [
    ( "check.static",
      [
        Alcotest.test_case "clean plans verify" `Quick test_clean_plans_verify;
        Alcotest.test_case "dropped grouped flag" `Quick test_mutation_dropped_grouped_flag;
        Alcotest.test_case "misordered merge input" `Quick test_mutation_misordered_merge_input;
        Alcotest.test_case "swapped key arrays" `Quick test_mutation_swapped_key_arrays;
        Alcotest.test_case "key type mismatch" `Quick test_mutation_key_type_mismatch;
        Alcotest.test_case "key arity / empty key" `Quick test_mutation_key_arity_and_empty;
        Alcotest.test_case "unknown table/column" `Quick test_mutation_unknown_table_and_column;
        Alcotest.test_case "project/limit/union/probe/expr" `Quick test_mutation_misc_nodes;
        Alcotest.test_case "paths name the node" `Quick test_violation_paths_name_the_node;
        Alcotest.test_case "property lattice" `Quick test_properties_lattice;
        Alcotest.test_case "chain ends at a residual" `Quick test_chain_ends_at_residual;
        Alcotest.test_case "chain ends at a sort build side" `Quick test_chain_ends_at_sort_build;
        Alcotest.test_case "chain ends at an hdgj" `Quick test_chain_ends_at_hdgj;
      ] );
    ( "check.integration",
      [
        QCheck_alcotest.to_alcotest prop_optimizer_plans_verify;
        Alcotest.test_case "all nine methods verify" `Quick test_all_methods_verify_on_paper_db;
        Alcotest.test_case "nine-method checked serve = unchecked" `Quick
          test_nine_methods_checked_serve;
        Alcotest.test_case "sql lint clean" `Quick test_sql_lint_clean;
      ] );
    ( "check.protocol",
      [
        Alcotest.test_case "violations raise" `Quick test_protocol_violations_raise;
        Alcotest.test_case "reopen and double close ok" `Quick test_protocol_allows_reopen_and_double_close;
        Alcotest.test_case "group monotonicity" `Quick test_group_monotonicity_enforced;
        Alcotest.test_case "lower_checked matches lower" `Quick test_lower_checked_matches_lower;
      ] );
  ]
