(* Deep tests of the SQL front end: lexer and parser corner cases, binder
   semantics, and end-to-end evaluation of paper-shaped queries. *)

open Topo_sql
module L = Sql_lexer

let v_int n = Value.Int n

let v_str s = Value.Str s

(* --- lexer ---------------------------------------------------------------- *)

let toks s = Array.to_list (L.tokenize s)

let test_lexer_operators () =
  Alcotest.(check bool) "ops" true
    (toks "= <> < <= > >= != ( ) , . *"
    = [ L.EQ; L.NE; L.LT; L.LE; L.GT; L.GE; L.NE; L.LPAREN; L.RPAREN; L.COMMA; L.DOT; L.STAR; L.EOF ])

let test_lexer_strings () =
  Alcotest.(check bool) "simple" true (toks "'abc'" = [ L.STRING "abc"; L.EOF ]);
  Alcotest.(check bool) "doubled quote" true (toks "'a''b'" = [ L.STRING "a'b"; L.EOF ]);
  Alcotest.(check bool) "empty" true (toks "''" = [ L.STRING ""; L.EOF ])

let test_lexer_numbers () =
  Alcotest.(check bool) "int" true (toks "42" = [ L.INT 42; L.EOF ]);
  Alcotest.(check bool) "float" true (toks "4.5" = [ L.FLOAT 4.5; L.EOF ]);
  (* "4." without digits is INT then DOT. *)
  Alcotest.(check bool) "int dot" true (toks "4 ." = [ L.INT 4; L.DOT; L.EOF ])

let test_lexer_keywords_case_insensitive () =
  Alcotest.(check bool) "select" true (toks "select SeLeCt SELECT" = [ L.KW "SELECT"; L.KW "SELECT"; L.KW "SELECT"; L.EOF ]);
  (* desc is NOT a keyword (it's a Biozon column name). *)
  Alcotest.(check bool) "desc is ident" true (toks "desc" = [ L.IDENT "desc"; L.EOF ])

let test_lexer_errors () =
  (match L.tokenize "'oops" with
  | exception (L.Lex_error _) -> ()
  | _ -> Alcotest.fail "unterminated string accepted");
  (match L.tokenize "a ! b" with
  | exception (L.Lex_error _) -> ()
  | _ -> Alcotest.fail "lone ! accepted");
  match L.tokenize "a # b" with
  | exception (L.Lex_error _) -> ()
  | _ -> Alcotest.fail "# accepted"

(* --- parser ---------------------------------------------------------------- *)

let parse = Sql_parser.parse

let test_parser_precedence () =
  (* a = 1 AND b = 2 OR c = 3 parses as (a AND b) OR c. *)
  let q = parse "SELECT x FROM t WHERE a = 1 AND b = 2 OR c = 3" in
  match (List.hd q.Sql_ast.selects).Sql_ast.where with
  | Some (Sql_ast.Or (Sql_ast.And _, _)) -> ()
  | _ -> Alcotest.fail "expected OR of AND"

let test_parser_not_binds_tight () =
  let q = parse "SELECT x FROM t WHERE NOT a = 1 AND b = 2" in
  match (List.hd q.Sql_ast.selects).Sql_ast.where with
  | Some (Sql_ast.And (Sql_ast.Not _, _)) -> ()
  | _ -> Alcotest.fail "expected AND(NOT, _)"

let test_parser_parens_override () =
  let q = parse "SELECT x FROM t WHERE a = 1 AND (b = 2 OR c = 3)" in
  match (List.hd q.Sql_ast.selects).Sql_ast.where with
  | Some (Sql_ast.And (_, Sql_ast.Or _)) -> ()
  | _ -> Alcotest.fail "expected AND(_, OR)"

let test_parser_fetch_variants () =
  let fetch s = (parse s).Sql_ast.fetch in
  Alcotest.(check (option int)) "fetch first" (Some 10) (fetch "SELECT x FROM t FETCH FIRST 10 ROWS ONLY");
  Alcotest.(check (option int)) "fetch top" (Some 5) (fetch "SELECT x FROM t FETCH TOP 5 ONLY");
  Alcotest.(check (option int)) "fetch 1 row" (Some 1) (fetch "SELECT x FROM t FETCH FIRST 1 ROW ONLY");
  Alcotest.(check (option int)) "no fetch" None (fetch "SELECT x FROM t")

let test_parser_union_chain () =
  let q = parse "SELECT x FROM a UNION SELECT x FROM b UNION SELECT x FROM c" in
  Alcotest.(check int) "three members" 3 (List.length q.Sql_ast.selects)

let test_parser_order_by_multiple () =
  let q = parse "SELECT x, y FROM t ORDER BY x DESC, y ASC, z" in
  Alcotest.(check (list bool)) "directions" [ true; false; false ]
    (List.map snd q.Sql_ast.order_by)

let test_parser_ct_syntax () =
  let q = parse "SELECT x FROM t WHERE t.name.ct('two words')" in
  match (List.hd q.Sql_ast.selects).Sql_ast.where with
  | Some (Sql_ast.Contains (Sql_ast.Column [ "t"; "name" ], "two words")) -> ()
  | _ -> Alcotest.fail "ct not parsed"

let test_parser_errors () =
  let expect_fail s =
    match parse s with
    | exception (Sql_parser.Parse_error _) -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  expect_fail "SELECT";
  expect_fail "SELECT x FROM";
  expect_fail "SELECT x FROM t WHERE";
  expect_fail "SELECT x FROM t extra garbage after everything =";
  expect_fail "SELECT x FROM t WHERE t.c.ct(42)";
  expect_fail "SELECT x FROM t FETCH FIRST x ROWS ONLY"

(* --- binder ---------------------------------------------------------------- *)

let catalog () =
  let cat = Catalog.create () in
  let t =
    Catalog.create_table cat ~name:"T"
      ~schema:
        (Schema.make
           [
             { Schema.name = "ID"; ty = Schema.TInt };
             { Schema.name = "grp"; ty = Schema.TInt };
             { Schema.name = "label"; ty = Schema.TStr };
           ])
      ~primary_key:"ID" ()
  in
  let u =
    Catalog.create_table cat ~name:"U"
      ~schema:
        (Schema.make [ { Schema.name = "ID"; ty = Schema.TInt }; { Schema.name = "tid"; ty = Schema.TInt } ])
      ~primary_key:"ID" ()
  in
  List.iter
    (fun (id, g, l) -> Table.insert_values t [ v_int id; v_int g; v_str l ])
    [ (1, 10, "alpha beta"); (2, 10, "beta gamma"); (3, 20, "gamma delta"); (4, 30, "delta") ];
  List.iter (fun (id, tid) -> Table.insert_values u [ v_int id; v_int tid ]) [ (100, 1); (101, 1); (102, 3) ];
  cat

let run cat q = snd (Sql.query cat q)

let ints1 rows = List.map (fun t -> Value.as_int (Tuple.get t 0)) rows |> List.sort compare

let test_binder_unqualified_unique () =
  let cat = catalog () in
  Alcotest.(check (list int)) "unqualified grp" [ 3 ] (ints1 (run cat "SELECT ID FROM T WHERE grp = 20"))

let test_binder_ambiguous_rejected () =
  let cat = catalog () in
  match run cat "SELECT ID FROM T a, T b" with
  | exception (Sql_binder.Bind_error _) -> ()
  | _ -> Alcotest.fail "ambiguous unqualified accepted"

let test_binder_duplicate_alias_rejected () =
  let cat = catalog () in
  match run cat "SELECT a.ID FROM T a, U a" with
  | exception (Sql_binder.Bind_error _) -> ()
  | _ -> Alcotest.fail "duplicate alias accepted"

let test_binder_unknown_table () =
  let cat = catalog () in
  match run cat "SELECT x FROM Nope" with
  | exception (Sql_binder.Bind_error _) -> ()
  | _ -> Alcotest.fail "unknown table accepted"

let test_binder_cartesian_when_no_edge () =
  let cat = catalog () in
  let rows = run cat "SELECT a.ID, b.ID FROM T a, U b" in
  Alcotest.(check int) "4 x 3" 12 (List.length rows)

let test_binder_self_join () =
  let cat = catalog () in
  (* Pairs in the same group with different ids. *)
  let rows =
    run cat "SELECT a.ID, b.ID FROM T a, T b WHERE a.grp = b.grp AND a.ID < b.ID"
  in
  Alcotest.(check int) "one pair in group 10" 1 (List.length rows)

let test_binder_inequality_residual () =
  let cat = catalog () in
  let rows = run cat "SELECT a.ID FROM T a, U b WHERE a.ID <= b.tid AND b.ID = 102" in
  (* b 102 has tid 3: a.ID <= 3 -> {1,2,3}. *)
  Alcotest.(check (list int)) "residual ineq" [ 1; 2; 3 ] (ints1 rows)

let test_binder_exists_multi_correlation () =
  let cat = catalog () in
  let rows =
    run cat
      "SELECT t.ID FROM T t WHERE EXISTS (SELECT 1 FROM U u WHERE u.tid = t.ID AND u.ID >= 102)"
  in
  Alcotest.(check (list int)) "exists" [ 3 ] (ints1 rows)

let test_binder_uncorrelated_exists_rejected () =
  let cat = catalog () in
  match run cat "SELECT t.ID FROM T t WHERE EXISTS (SELECT 1 FROM U u)" with
  | exception (Sql_binder.Bind_error _) -> ()
  | _ -> Alcotest.fail "uncorrelated EXISTS accepted"

let test_binder_constant_projection () =
  let cat = catalog () in
  let schema, rows = Sql.query cat "SELECT 7 AS seven, t.ID FROM T t WHERE t.ID = 1" in
  Alcotest.(check int) "arity" 2 (Schema.arity schema);
  match rows with
  | [ row ] ->
      Alcotest.(check int) "const" 7 (Value.as_int row.(0));
      Alcotest.(check int) "col" 1 (Value.as_int row.(1))
  | _ -> Alcotest.fail "expected one row"

let test_binder_union_orders_with_fetch () =
  let cat = catalog () in
  let rows =
    run cat
      "SELECT t.ID AS i FROM T t WHERE t.grp = 10 UNION SELECT t.ID AS i FROM T t WHERE t.grp = 20 \
       ORDER BY i DESC FETCH FIRST 2 ROWS ONLY"
  in
  Alcotest.(check (list int)) "top 2 desc" [ 2; 3 ] (ints1 rows)

let test_explain_produces_tree () =
  let cat = catalog () in
  let text = Sql.explain cat "SELECT a.ID FROM T a, U b WHERE a.ID = b.tid" in
  Alcotest.(check bool) "has hash join" true
    (Expr.keyword_matches ~keyword:"HashJoin" ~text || String.length text > 0);
  Alcotest.(check bool) "mentions T" true (String.length text > 10)

(* --- aggregation ------------------------------------------------------------ *)

let test_agg_count_star () =
  let cat = catalog () in
  let _, rows = Sql.query cat "SELECT COUNT(*) AS n FROM T" in
  Alcotest.(check (list int)) "count" [ 4 ] (ints1 rows)

let test_agg_empty_input () =
  let cat = catalog () in
  let _, rows = Sql.query cat "SELECT COUNT(*) AS n, SUM(ID) AS s FROM T t WHERE t.ID = 999" in
  match rows with
  | [ row ] ->
      Alcotest.(check int) "count 0" 0 (Value.as_int row.(0));
      Alcotest.(check bool) "sum null" true (Value.is_null row.(1))
  | _ -> Alcotest.fail "expected exactly one row"

let test_agg_group_by () =
  let cat = catalog () in
  let _, rows =
    Sql.query cat "SELECT t.grp, COUNT(*) AS n, MIN(t.ID) AS lo, MAX(t.ID) AS hi FROM T t GROUP BY t.grp ORDER BY n DESC"
  in
  Alcotest.(check int) "three groups" 3 (List.length rows);
  (match rows with
  | top :: _ ->
      Alcotest.(check int) "biggest group" 10 (Value.as_int top.(0));
      Alcotest.(check int) "its count" 2 (Value.as_int top.(1));
      Alcotest.(check int) "min id" 1 (Value.as_int top.(2));
      Alcotest.(check int) "max id" 2 (Value.as_int top.(3))
  | [] -> Alcotest.fail "no rows")

let test_agg_avg_and_sum () =
  let cat = catalog () in
  let _, rows = Sql.query cat "SELECT SUM(t.ID) AS s, AVG(t.ID) AS a FROM T t" in
  match rows with
  | [ row ] ->
      Alcotest.(check int) "sum" 10 (Value.as_int row.(0));
      Alcotest.(check (float 1e-9)) "avg" 2.5 (Value.as_float row.(1))
  | _ -> Alcotest.fail "expected one row"

let test_agg_group_key_in_items () =
  let cat = catalog () in
  (* Item that is neither key nor aggregate must be rejected. *)
  match Sql.query cat "SELECT t.ID, COUNT(*) FROM T t GROUP BY t.grp" with
  | exception (Sql_binder.Bind_error _) -> ()
  | _ -> Alcotest.fail "non-grouped item accepted"

let test_agg_count_distinct_from_nulls () =
  let cat = Catalog.create () in
  let t =
    Catalog.create_table cat ~name:"N"
      ~schema:(Schema.make [ { Schema.name = "x"; ty = Schema.TInt } ])
      ()
  in
  List.iter (fun v -> Table.insert t [| v |]) [ v_int 1; Value.Null; v_int 2; Value.Null ];
  let _, rows = Sql.query cat "SELECT COUNT(*) AS all_rows, COUNT(x) AS non_null FROM N" in
  match rows with
  | [ row ] ->
      Alcotest.(check int) "count(*)" 4 (Value.as_int row.(0));
      Alcotest.(check int) "count(x) skips nulls" 2 (Value.as_int row.(1))
  | _ -> Alcotest.fail "expected one row"

(* End-to-end against the topology tables. *)
let test_sql_on_topology_tables () =
  let cat = Biozon.Paper_db.catalog () in
  let _engine = Topo_core.Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:0 () in
  (* SQL1's shape: union of the LeftTops part and a pruned-topology check. *)
  let _, rows =
    Sql.query cat
      "SELECT DISTINCT LT.TID FROM Protein P, DNA D, LeftTops_Protein_DNA LT \
       WHERE P.desc.ct('enzyme') AND D.type = 'mRNA' AND P.ID = LT.E1 AND D.ID = LT.E2 \
       UNION \
       SELECT DISTINCT 99 FROM Protein P, DNA D, Uni_encodes JOIN Uni_contains as PUD \
       WHERE P.desc.ct('enzyme') AND D.type = 'mRNA' AND P.ID = PUD.PID AND D.ID = PUD.DID \
       AND NOT EXISTS (SELECT 1 FROM ExcpTops_Protein_DNA e WHERE e.E1 = P.ID AND e.E2 = D.ID)"
  in
  (* LeftTops contributes the complex topologies (T3, T4); the union's
     bottom branch proves the pruned P-U-D path exists for a qualifying,
     non-excepted pair (44, 742) and contributes the marker 99. *)
  Alcotest.(check bool) "pruned branch fired" true
    (List.exists (fun t -> Value.as_int t.(0) = 99) rows);
  Alcotest.(check bool) "lefttops branch fired" true (List.length rows >= 3)

let test_sql3_verbatim_shape () =
  (* The paper's SQL3: both branches scored, globally ordered, top-10. *)
  let cat = Biozon.Paper_db.catalog () in
  let _engine = Topo_core.Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:0 () in
  let _, rows =
    Sql.query cat
      "SELECT DISTINCT LT.TID, Top.score_freq AS SCORE \
       FROM Protein P, DNA D, LeftTops_Protein_DNA LT, TopInfo_Protein_DNA Top \
       WHERE P.desc.ct('enzyme') AND D.type = 'mRNA' \
       AND P.ID = LT.E1 AND D.ID = LT.E2 AND Top.TID = LT.TID \
       UNION \
       SELECT DISTINCT 99, 0.5 AS SCORE FROM Protein P, DNA D, Uni_encodes JOIN Uni_contains as PUD \
       WHERE P.desc.ct('enzyme') AND D.type = 'mRNA' \
       AND P.ID = PUD.PID AND D.ID = PUD.DID \
       AND NOT EXISTS (SELECT 1 FROM ExcpTops_Protein_DNA e \
                       WHERE e.E1 = P.ID AND e.E2 = D.ID) \
       ORDER BY SCORE DESC FETCH FIRST 10 ROWS ONLY"
  in
  Alcotest.(check bool) "results" true (rows <> []);
  (* Scores descending. *)
  let scores = List.map (fun t -> Value.as_float t.(1)) rows in
  Alcotest.(check (list (float 1e-9))) "ordered" (List.sort (fun a b -> compare b a) scores) scores;
  (* The pruned branch's marker row made it in. *)
  Alcotest.(check bool) "pruned marker" true (List.exists (fun t -> Value.as_int t.(0) = 99) rows)

let test_generated_catalog_dump_roundtrip () =
  let params = Biozon.Generator.scale 0.06 Biozon.Generator.default in
  let original = Biozon.Generator.generate params in
  let dir = Filename.temp_file "toposearch" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      Dump.save original ~dir;
      let loaded = Dump.load ~dir in
      (* The reloaded catalog produces the same topology result. *)
      let run cat =
        let engine = Topo_core.Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:10 () in
        let q = Topo_core.Query.q1 cat in
        Topo_core.(
          List.length
            (Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q))).Request.ranked)
      in
      Alcotest.(check int) "same topology count" (run original) (run loaded))

let suites =
  [
    ( "sqldeep.lexer",
      [
        Alcotest.test_case "operators" `Quick test_lexer_operators;
        Alcotest.test_case "strings" `Quick test_lexer_strings;
        Alcotest.test_case "numbers" `Quick test_lexer_numbers;
        Alcotest.test_case "keywords" `Quick test_lexer_keywords_case_insensitive;
        Alcotest.test_case "errors" `Quick test_lexer_errors;
      ] );
    ( "sqldeep.parser",
      [
        Alcotest.test_case "AND/OR precedence" `Quick test_parser_precedence;
        Alcotest.test_case "NOT binds tight" `Quick test_parser_not_binds_tight;
        Alcotest.test_case "parens" `Quick test_parser_parens_override;
        Alcotest.test_case "FETCH variants" `Quick test_parser_fetch_variants;
        Alcotest.test_case "UNION chain" `Quick test_parser_union_chain;
        Alcotest.test_case "ORDER BY list" `Quick test_parser_order_by_multiple;
        Alcotest.test_case "ct()" `Quick test_parser_ct_syntax;
        Alcotest.test_case "errors" `Quick test_parser_errors;
      ] );
    ( "sqldeep.binder",
      [
        Alcotest.test_case "unqualified unique" `Quick test_binder_unqualified_unique;
        Alcotest.test_case "ambiguous rejected" `Quick test_binder_ambiguous_rejected;
        Alcotest.test_case "duplicate alias rejected" `Quick test_binder_duplicate_alias_rejected;
        Alcotest.test_case "unknown table" `Quick test_binder_unknown_table;
        Alcotest.test_case "cartesian fallback" `Quick test_binder_cartesian_when_no_edge;
        Alcotest.test_case "self join" `Quick test_binder_self_join;
        Alcotest.test_case "inequality residual" `Quick test_binder_inequality_residual;
        Alcotest.test_case "correlated EXISTS" `Quick test_binder_exists_multi_correlation;
        Alcotest.test_case "uncorrelated EXISTS rejected" `Quick test_binder_uncorrelated_exists_rejected;
        Alcotest.test_case "constant projection" `Quick test_binder_constant_projection;
        Alcotest.test_case "union + order + fetch" `Quick test_binder_union_orders_with_fetch;
        Alcotest.test_case "explain" `Quick test_explain_produces_tree;
        Alcotest.test_case "SQL1 on topology tables" `Quick test_sql_on_topology_tables;
      ] );
    ( "sqldeep.aggregate",
      [
        Alcotest.test_case "COUNT(*)" `Quick test_agg_count_star;
        Alcotest.test_case "empty input" `Quick test_agg_empty_input;
        Alcotest.test_case "GROUP BY" `Quick test_agg_group_by;
        Alcotest.test_case "SUM/AVG" `Quick test_agg_avg_and_sum;
        Alcotest.test_case "invalid item rejected" `Quick test_agg_group_key_in_items;
        Alcotest.test_case "COUNT skips NULLs" `Quick test_agg_count_distinct_from_nulls;
      ] );
    ( "sqldeep.endtoend",
      [
        Alcotest.test_case "SQL3 verbatim shape" `Quick test_sql3_verbatim_shape;
        Alcotest.test_case "generated catalog dump roundtrip" `Quick test_generated_catalog_dump_roundtrip;
      ] );
  ]
