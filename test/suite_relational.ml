(* Tests for the relational engine substrate: values, schemas, expressions,
   tables, indexes, histograms, Volcano operators, DGJ operators, the SQL
   front end and the optimizer. *)

open Topo_sql

let v_int n = Value.Int n

let v_str s = Value.Str s

(* A tiny two-table catalog used across tests: people and cities. *)
let people_schema =
  Schema.make
    [
      { Schema.name = "ID"; ty = Schema.TInt };
      { Schema.name = "name"; ty = Schema.TStr };
      { Schema.name = "city"; ty = Schema.TInt };
    ]

let cities_schema =
  Schema.make [ { Schema.name = "ID"; ty = Schema.TInt }; { Schema.name = "cname"; ty = Schema.TStr } ]

let make_catalog () =
  let cat = Catalog.create () in
  let people = Catalog.create_table cat ~name:"People" ~schema:people_schema ~primary_key:"ID" () in
  let cities = Catalog.create_table cat ~name:"Cities" ~schema:cities_schema ~primary_key:"ID" () in
  List.iter
    (fun (id, name, city) -> Table.insert_values people [ v_int id; v_str name; v_int city ])
    [
      (1, "ada the enzyme expert", 10);
      (2, "grace", 10);
      (3, "alan kinase", 20);
      (4, "barbara", 30);
      (5, "edsger enzyme", 20);
    ];
  List.iter
    (fun (id, name) -> Table.insert_values cities [ v_int id; v_str name ])
    [ (10, "ithaca"); (20, "haifa"); (30, "seoul") ];
  cat

(* --- values ----------------------------------------------------------- *)

let test_value_order () =
  Alcotest.(check bool) "null smallest" true (Value.compare Value.Null (v_int (-100)) < 0);
  Alcotest.(check bool) "int vs float" true (Value.compare (v_int 2) (Value.Float 2.5) < 0);
  Alcotest.(check bool) "int eq float" true (Value.equal (v_int 2) (Value.Float 2.0));
  Alcotest.(check bool) "str after num" true (Value.compare (v_str "a") (v_int 999) > 0)

let test_value_hash_consistent () =
  Alcotest.(check int) "int/float hash" (Value.hash (v_int 7)) (Value.hash (Value.Float 7.0))

let test_value_width () =
  Alcotest.(check int) "int width" 8 (Value.width (v_int 5));
  Alcotest.(check int) "str width" 11 (Value.width (v_str "abc"))

(* --- schema ----------------------------------------------------------- *)

let test_schema_lookup () =
  Alcotest.(check int) "index_of" 1 (Schema.index_of people_schema "name");
  Alcotest.(check bool) "mem" true (Schema.mem people_schema "city");
  Alcotest.(check (option int)) "index_opt absent" None (Schema.index_opt people_schema "nope")

let test_schema_duplicate_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Schema.make: duplicate column x") (fun () ->
      ignore (Schema.make [ { Schema.name = "x"; ty = Schema.TInt }; { Schema.name = "x"; ty = Schema.TInt } ]))

let test_schema_qualify_concat () =
  let q = Schema.qualify "P" people_schema in
  Alcotest.(check int) "qualified lookup" 0 (Schema.index_of q "P.ID");
  let j = Schema.concat q (Schema.qualify "C" cities_schema) in
  Alcotest.(check int) "arity" 5 (Schema.arity j);
  Alcotest.(check int) "right side offset" 3 (Schema.index_of j "C.ID")

let test_schema_requalify () =
  let q = Schema.qualify "B" (Schema.qualify "A" people_schema) in
  Alcotest.(check int) "requalified" 0 (Schema.index_of q "B.ID")

(* --- expressions ------------------------------------------------------ *)

let test_expr_eval_cmp () =
  let t = [| v_int 5; v_str "hello"; v_int 10 |] in
  Alcotest.(check bool) "lt" true (Expr.truthy (Expr.Cmp (Expr.Lt, Expr.Col 0, Expr.Const (v_int 6))) t);
  Alcotest.(check bool) "eq str" true
    (Expr.truthy (Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (v_str "hello"))) t);
  Alcotest.(check bool) "null cmp is falsy" false
    (Expr.truthy (Expr.Cmp (Expr.Eq, Expr.Const Value.Null, Expr.Const Value.Null)) t)

let test_expr_bool_logic () =
  let t = [| v_int 1 |] in
  let tr = Expr.Const (v_int 1) and fa = Expr.Const (v_int 0) in
  Alcotest.(check bool) "and" false (Expr.truthy (Expr.And [ tr; fa ]) t);
  Alcotest.(check bool) "or" true (Expr.truthy (Expr.Or [ fa; tr ]) t);
  Alcotest.(check bool) "not" true (Expr.truthy (Expr.Not fa) t);
  Alcotest.(check bool) "empty and" true (Expr.truthy (Expr.And []) t);
  Alcotest.(check bool) "empty or" false (Expr.truthy (Expr.Or []) t)

let test_expr_contains_word_boundaries () =
  let m k s = Expr.keyword_matches ~keyword:k ~text:s in
  Alcotest.(check bool) "simple" true (m "enzyme" "ubiquitin-conjugating enzyme E2");
  Alcotest.(check bool) "case" true (m "Enzyme" "the ENZYME works");
  Alcotest.(check bool) "substring rejected" false (m "zyme" "enzyme");
  Alcotest.(check bool) "prefix rejected" false (m "enzy" "enzyme");
  Alcotest.(check bool) "hyphen boundary" true (m "mms2" "Homo sapiens MMS2 (MMS2) mRNA");
  Alcotest.(check bool) "absent" false (m "kinase" "an enzyme");
  Alcotest.(check bool) "at the very end" true (m "kinase" "protein KINASE");
  Alcotest.(check bool) "cut off at the end" false (m "kinase" "protein kinas");
  Alcotest.(check bool) "_ after is a word char" false (m "kinase" "kinase_2 protein");
  Alcotest.(check bool) "_ before is a word char" false (m "kinase" "pre_kinase");
  Alcotest.(check bool) "repeated prefix" false (m "ab" "aab");
  Alcotest.(check bool) "repeated prefix, later word" true (m "ab" "aab ab");
  Alcotest.(check bool) "digits in the keyword" true (m "p53" "tumour P53 suppressor");
  Alcotest.(check bool) "digit before is a word char" false (m "53" "p53");
  Alcotest.(check bool) "digit after is a word char" false (m "e" "enzyme E2");
  Alcotest.(check bool) "empty keyword, empty text" true (m "" "");
  Alcotest.(check bool) "keyword longer than text" false (m "enzymes" "enzyme")

let test_expr_contains_allocates_nothing () =
  let text = "Homo sapiens ubiquitin-conjugating ENZYME E2 variant 1 (UBE2V1), mRNA" in
  let keywords = [| "enzyme"; "mrna"; "kinase"; "e2 variant" |] in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 39_999 do
    if Expr.keyword_matches ~keyword:keywords.(i land 3) ~text then incr hits
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "hits" 30_000 !hits;
  Alcotest.(check bool) (Printf.sprintf "40,000 matches allocated %.0f words" words) true (words < 100.0)

(* The lowercase-copy matcher [Expr.keyword_matches] replaced, kept
   verbatim as the oracle for the in-place one; a word is [[A-Za-z0-9_]]. *)
let reference_keyword_matches ~keyword ~text =
  let is_word_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false in
  let keyword = String.lowercase_ascii keyword in
  let text = String.lowercase_ascii text in
  let klen = String.length keyword and tlen = String.length text in
  if klen = 0 then true
  else
    let rec scan from =
      if from + klen > tlen then false
      else
        match String.index_from_opt text from keyword.[0] with
        | None -> false
        | Some i ->
            if i + klen > tlen then false
            else if
              String.sub text i klen = keyword
              && (i = 0 || not (is_word_char text.[i - 1]))
              && (i + klen = tlen || not (is_word_char text.[i + klen]))
            then true
            else scan (i + 1)
    in
    scan 0

(* A small alphabet so that matches, near misses and boundaries are all
   common: mixed case, digits, '_', '-', ' ', '.' and non-ASCII bytes. *)
let gen_matcher_string max_len =
  let alphabet = "aAbB01_- .\xc3\xa9\xffzZ" in
  QCheck.Gen.(string_size ~gen:(oneofl (List.init (String.length alphabet) (String.get alphabet))) (int_bound max_len))

let prop_keyword_matches_oracle =
  QCheck.Test.make ~name:"keyword_matches = lowercase-copy reference" ~count:2000
    QCheck.(make ~print:Print.(pair string string) Gen.(pair (gen_matcher_string 4) (gen_matcher_string 12)))
    (fun (keyword, text) -> Expr.keyword_matches ~keyword ~text = reference_keyword_matches ~keyword ~text)

let test_expr_conj_flattens () =
  let a = Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Const (v_int 1)) in
  let c = Expr.conj (Expr.And []) a in
  Alcotest.(check bool) "trivial left dropped" true (c = a);
  let e = Expr.conj (Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Col 2)) (Expr.Contains (Expr.Col 1, "x")) in
  Alcotest.(check (list int)) "columns" [ 0; 1; 2 ] (Expr.columns e)

(* --- tables & indexes -------------------------------------------------- *)

let test_table_insert_and_pk () =
  let cat = make_catalog () in
  let people = Catalog.find cat "People" in
  Alcotest.(check int) "rows" 5 (Table.row_count people);
  (match Table.find_by_pk people (v_int 3) with
  | Some t -> Alcotest.(check string) "pk fetch" "alan kinase" (Value.as_string (Tuple.get t 1))
  | None -> Alcotest.fail "pk lookup failed");
  Alcotest.check_raises "dup pk" (Invalid_argument "Table.insert(People): duplicate primary key 1")
    (fun () -> Table.insert_values people [ v_int 1; v_str "dup"; v_int 10 ])

let test_table_arity_check () =
  let cat = make_catalog () in
  let people = Catalog.find cat "People" in
  Alcotest.check_raises "arity" (Invalid_argument "Table.insert(People): arity 1, expected 3") (fun () ->
      Table.insert_values people [ v_int 99 ])

let test_hash_index_probe () =
  let cat = make_catalog () in
  let people = Catalog.find cat "People" in
  let idx = Table.ensure_index people ~kind:Index.Hash ~cols:[ "city" ] in
  Alcotest.(check int) "two in city 10" 2 (Index.probe_count idx [| v_int 10 |]);
  Alcotest.(check int) "none in city 99" 0 (Index.probe_count idx [| v_int 99 |]);
  Alcotest.(check int) "distinct cities" 3 (Index.distinct_keys idx)

let test_sorted_index_order () =
  let cat = make_catalog () in
  let people = Catalog.find cat "People" in
  let idx = Table.ensure_index people ~kind:Index.Sorted ~cols:[ "city" ] in
  let rows = Index.ordered_rows idx in
  let cities = Array.map (fun r -> Value.as_int (Tuple.get (Table.get people r) 2)) rows in
  let sorted = Array.copy cities in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "ascending" sorted cities;
  let desc = Index.ordered_rows ~desc:true idx in
  Alcotest.(check int) "desc first is max" 30 (Value.as_int (Tuple.get (Table.get people desc.(0)) 2))

let test_index_rebuilt_after_insert () =
  let cat = make_catalog () in
  let people = Catalog.find cat "People" in
  let idx = Table.ensure_index people ~kind:Index.Hash ~cols:[ "city" ] in
  Alcotest.(check int) "before" 2 (Index.probe_count idx [| v_int 10 |]);
  Table.insert_values people [ v_int 6; v_str "new person"; v_int 10 ];
  let idx' = Table.ensure_index people ~kind:Index.Hash ~cols:[ "city" ] in
  Alcotest.(check int) "after rebuild" 3 (Index.probe_count idx' [| v_int 10 |])

(* --- histograms & stats ------------------------------------------------ *)

let test_histogram_selectivity () =
  let values = Array.init 100 (fun i -> v_int (i mod 10)) in
  let h = Histogram.build values in
  Alcotest.(check int) "distinct" 10 (Histogram.distinct h);
  Alcotest.(check (float 0.02)) "eq sel" 0.1 (Histogram.selectivity_eq h (v_int 3));
  Alcotest.(check (float 0.05)) "range sel" 0.5 (Histogram.selectivity_range h ~hi:(v_int 4) ())

let test_histogram_nulls () =
  let h = Histogram.build [| Value.Null; v_int 1; Value.Null |] in
  Alcotest.(check int) "nulls" 2 (Histogram.null_count h);
  Alcotest.(check int) "total" 1 (Histogram.total h)

let test_stats_contains_selectivity () =
  let cat = make_catalog () in
  let stats = Catalog.stats cat "People" in
  let schema = Table.schema (Catalog.find cat "People") in
  let sel = Table_stats.predicate_selectivity stats schema (Expr.Contains (Expr.Col 1, "enzyme")) in
  Alcotest.(check (float 0.01)) "2 of 5 contain enzyme" 0.4 sel

(* Random (ID, desc) tables, up to past the 512-row sample size, and
   keywords that take both the token-count path and the scan path. *)
let estimator_words =
  [| "zinc"; "finger"; "Zinc"; "alpha"; "BETA"; "alpha-beta"; "p53"; "e2"; "kinase_2"; "kinase"; "\xc3\xa9t\xc3\xa9" |]

let estimator_keywords =
  [| "zinc"; "ZINC"; "finger"; "zinc finger"; "alpha-beta"; ""; "Alpha"; "beta"; "p53"; "P5"; "e2"; "kinase";
     "kinase_2"; "KINASE_2"; "absent"; "\xc3\xa9t\xc3\xa9"; "." |]

let gen_estimator_case =
  let open QCheck.Gen in
  let text =
    let* words = list_size (int_bound 6) (oneofa estimator_words) in
    let+ seps = list_repeat (List.length words) (oneofl [ " "; "-"; ", "; "_"; "." ]) in
    String.concat "" (List.map2 ( ^ ) words seps)
  in
  let cell = frequency [ (9, map (fun s -> Value.Str s) text); (1, return Value.Null) ] in
  let* cells = list_size (int_bound 700) cell in
  let+ keyword = frequency [ (4, oneofa estimator_keywords); (1, gen_matcher_string 5) ] in
  (cells, keyword)

let prop_contains_estimate_oracle =
  QCheck.Test.make ~name:"Contains estimate = sample scan, bit for bit" ~count:200
    (QCheck.make
       ~print:(fun (cells, kw) -> Printf.sprintf "%d rows, keyword %S" (List.length cells) kw)
       gen_estimator_case)
    (fun (cells, keyword) ->
      let schema =
        Schema.make [ { Schema.name = "ID"; ty = Schema.TInt }; { Schema.name = "desc"; ty = Schema.TStr } ]
      in
      let cat = Catalog.create () in
      let tb = Catalog.create_table cat ~name:"T" ~schema ~primary_key:"ID" () in
      List.iteri (fun i v -> Table.insert_values tb [ v_int i; v ]) cells;
      let stats = Catalog.stats cat "T" in
      List.for_all
        (fun col ->
          let sample = Table_stats.sample stats col in
          let scan =
            if Array.length sample = 0 then 0.0
            else
              let hits =
                Array.fold_left
                  (fun n v ->
                    match v with
                    | Value.Str text when reference_keyword_matches ~keyword ~text -> n + 1
                    | Value.Str _ | Value.Null | Value.Int _ | Value.Float _ -> n)
                  0 sample
              in
              float_of_int hits /. float_of_int (Array.length sample)
          in
          let est = Table_stats.predicate_selectivity stats schema (Expr.Contains (Expr.Col col, keyword)) in
          Float.equal est scan || QCheck.Test.fail_reportf "column %d: estimate %h, scan %h" col est scan)
        [ 0; 1 ])

let test_stats_join_selectivity () =
  let cat = make_catalog () in
  let ps = Catalog.stats cat "People" and cs = Catalog.stats cat "Cities" in
  let s = Table_stats.join_selectivity ~left:ps ~left_col:2 ~right:cs ~right_col:0 in
  Alcotest.(check (float 1e-9)) "1/max(3,3)" (1.0 /. 3.0) s

(* --- keyword postings and compiled row filters -------------------------- *)

let postings_schema =
  Schema.make
    [
      { Schema.name = "ID"; ty = Schema.TInt };
      { Schema.name = "desc"; ty = Schema.TStr };
      { Schema.name = "note"; ty = Schema.TStr };
    ]

let postings_table cells =
  let tb = Table.create ~name:"P" ~schema:postings_schema ~primary_key:"ID" () in
  List.iteri (fun i (d, n) -> Table.insert_values tb [ v_int i; d; n ]) cells;
  tb

(* Rows whose column [col] holds a [Str] the matcher accepts: what
   [Table.keyword_rows] must return. *)
let matching_rows tb col keyword =
  let out = ref [] in
  Table.iter
    (fun r tuple ->
      match tuple.(col) with
      | Value.Str text when Expr.keyword_matches ~keyword ~text -> out := r :: !out
      | Value.Str _ | Value.Null | Value.Int _ | Value.Float _ -> ())
    tb;
  Array.of_list (List.rev !out)

(* Cells over the estimator's words (mixed case, digits, '_', non-ASCII)
   and the matcher alphabet, joined by ' ', '-', '.', '_' and ", ", plus
   NULL and Int cells, which have no tokens. *)
let gen_postings_cell =
  let open QCheck.Gen in
  let text =
    let* words = list_size (int_bound 5) (oneof [ oneofa estimator_words; gen_matcher_string 6 ]) in
    let+ seps = list_repeat (List.length words) (oneofl [ " "; "-"; ", "; "_"; "."; "\xc3\xa9" ]) in
    String.concat "" (List.map2 ( ^ ) words seps)
  in
  frequency [ (8, map (fun s -> Value.Str s) text); (1, return Value.Null); (1, map v_int (int_bound 3)) ]

let gen_postings_cells max_rows = QCheck.Gen.(list_size (int_bound max_rows) (pair gen_postings_cell gen_postings_cell))

(* Word, multi-word, punctuated, upper-case, empty and random keywords. *)
let gen_keyword =
  QCheck.Gen.(frequency [ (4, oneofa estimator_keywords); (1, gen_matcher_string 4) ])

let rec gen_pred depth =
  let open QCheck.Gen in
  let col = int_bound 2 in
  let leaf =
    frequency
      [
        (5, map2 (fun c kw -> Expr.Contains (Expr.Col c, kw)) col gen_keyword);
        (1, map (fun kw -> Expr.Contains (Expr.Const (v_str "zinc finger"), kw)) gen_keyword);
        ( 2,
          map3
            (fun op c k -> Expr.Cmp (op, Expr.Col c, Expr.Const (v_int k)))
            (oneofl Expr.[ Eq; Ne; Lt; Ge ])
            col (int_bound 3) );
        (1, map (fun c -> Expr.IsNull (Expr.Col c)) col);
      ]
  in
  if depth = 0 then leaf
  else
    let sub = gen_pred (depth - 1) in
    frequency
      [
        (3, leaf);
        (3, map (fun es -> Expr.And es) (list_size (int_bound 4) sub));
        (1, map (fun es -> Expr.Or es) (list_size (int_bound 3) sub));
        (1, map (fun e -> Expr.Not e) sub);
      ]

let prop_row_filter_oracle =
  QCheck.Test.make ~name:"compiled filter = Expr.truthy on every row" ~count:300
    (QCheck.make
       ~print:(fun (cells, extra, pred) ->
         Printf.sprintf "%d rows + %d appended, %s" (List.length cells) (List.length extra) (Expr.to_string pred))
       QCheck.Gen.(triple (gen_postings_cells 60) (gen_postings_cells 3) (gen_pred 2)))
    (fun (cells, extra, pred) ->
      let tb = postings_table cells in
      let keep = Row_filter.compile tb pred in
      (* Rows appended after the compile must be decided right too. *)
      List.iteri
        (fun i (d, n) -> Table.insert_values tb [ v_int (List.length cells + i); d; n ])
        extra;
      let ok = ref true in
      Table.iter
        (fun r tuple ->
          let want = Expr.truthy pred tuple and got = keep r tuple in
          if got <> want then begin
            ok := false;
            QCheck.Test.fail_reportf "row %d (%s): compiled %b, truthy %b" r (Tuple.to_string tuple) got want
          end)
        tb;
      !ok)

let prop_keyword_rows_oracle =
  QCheck.Test.make ~name:"keyword_rows = rows where keyword_matches holds" ~count:300
    (QCheck.make
       ~print:(fun (cells, kw) -> Printf.sprintf "%d rows, keyword %S" (List.length cells) kw)
       QCheck.Gen.(pair (gen_postings_cells 80) gen_keyword))
    (fun (cells, keyword) ->
      let tb = postings_table cells in
      List.for_all
        (fun col ->
          if Expr.single_word keyword then
            Table.keyword_rows tb col keyword = matching_rows tb col keyword
            || QCheck.Test.fail_reportf "column %d" col
          else
            match Table.keyword_rows tb col keyword with
            | _ -> QCheck.Test.fail_reportf "%S is not a single word, yet answered" keyword
            | exception Invalid_argument _ -> true)
        [ 0; 1; 2 ])

let test_postings_freshness () =
  let tb = postings_table [ (v_str "Zinc finger", Value.Null); (v_str "kinase", v_str "zinc") ] in
  Alcotest.(check (array int)) "built" [| 0 |] (Table.keyword_rows tb 1 "ZINC");
  Table.insert_values tb [ v_int 2; v_str "zinc-binding"; Value.Null ];
  Alcotest.(check (array int)) "an insert after the build shows the new row" [| 0; 2 |]
    (Table.keyword_rows tb 1 "zinc");
  Alcotest.check_raises "column out of range" (Invalid_argument "Table.keyword_rows(P): column 3") (fun () ->
      ignore (Table.keyword_rows tb 3 "zinc"))

let test_postings_cold_race () =
  let cells = List.init 2000 (fun i -> (v_str (Printf.sprintf "zinc w%d finger" (i mod 7)), v_int i)) in
  let tb = postings_table cells in
  let go = Atomic.make false in
  let race () =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        Table.keyword_rows tb 1 "finger")
  in
  let d1 = race () and d2 = race () in
  Atomic.set go true;
  let a = Domain.join d1 and b = Domain.join d2 in
  Alcotest.(check int) "every row" 2000 (Array.length a);
  Alcotest.(check bool) "both domains got the same physical array" true (a == b);
  Alcotest.(check bool) "and so does a later lookup" true (a == Table.keyword_rows tb 1 "Finger")

(* --- operators --------------------------------------------------------- *)

let test_scan_with_pred () =
  let cat = make_catalog () in
  let it = Op_scan.seq ~pred:(Expr.Contains (Expr.Col 1, "enzyme")) (Catalog.find cat "People") in
  Alcotest.(check int) "matches" 2 (Iterator.count it)

let test_filter_project () =
  let cat = make_catalog () in
  let it = Op_scan.seq (Catalog.find cat "People") in
  let it = Op_basic.filter (Expr.Cmp (Expr.Eq, Expr.Col 2, Expr.Const (v_int 20))) it in
  let it = Op_basic.project it ~cols:[ 1 ] in
  let names = List.map (fun t -> Value.as_string (Tuple.get t 0)) (Iterator.to_list it) in
  Alcotest.(check (list string)) "projected names" [ "alan kinase"; "edsger enzyme" ] names

let test_sort_limit () =
  let cat = make_catalog () in
  let it = Op_scan.seq (Catalog.find cat "People") in
  let it = Op_basic.sort it ~by:[ (0, true) ] in
  let it = Op_basic.limit 2 it in
  let ids = List.map (fun t -> Value.as_int (Tuple.get t 0)) (Iterator.to_list it) in
  Alcotest.(check (list int)) "top ids desc" [ 5; 4 ] ids

let test_distinct () =
  let schema = Schema.make [ { Schema.name = "x"; ty = Schema.TInt } ] in
  let it = Iterator.of_tuples schema [| [| v_int 1 |]; [| v_int 2 |]; [| v_int 1 |]; [| v_int 3 |] |] in
  Alcotest.(check int) "distinct count" 3 (Iterator.count (Op_basic.distinct it))

let test_union_dedups () =
  let schema = Schema.make [ { Schema.name = "x"; ty = Schema.TInt } ] in
  let a = Iterator.of_tuples schema [| [| v_int 1 |]; [| v_int 2 |] |] in
  let b = Iterator.of_tuples schema [| [| v_int 2 |]; [| v_int 3 |] |] in
  let out = List.map (fun t -> Value.as_int (Tuple.get t 0)) (Iterator.to_list (Op_basic.union a b)) in
  Alcotest.(check (list int)) "union" [ 1; 2; 3 ] out

let test_hash_join () =
  let cat = make_catalog () in
  let left = Op_scan.seq (Catalog.find cat "People") in
  let right = Op_scan.seq (Catalog.find cat "Cities") in
  let it = Op_join.hash_join ~left ~right ~left_cols:[| 2 |] ~right_cols:[| 0 |] () in
  let rows = Iterator.to_list it in
  Alcotest.(check int) "all people joined" 5 (List.length rows);
  List.iter
    (fun t ->
      Alcotest.(check int) "join key match" (Value.as_int (Tuple.get t 2)) (Value.as_int (Tuple.get t 3)))
    rows

let test_index_nl_join_equals_hash_join () =
  let cat = make_catalog () in
  let left = Op_scan.seq (Catalog.find cat "People") in
  let it =
    Op_join.index_nl_join ~left ~table:(Catalog.find cat "Cities") ~table_cols:[ "ID" ] ~left_cols:[| 2 |]
      ()
  in
  Alcotest.(check int) "same cardinality" 5 (List.length (Iterator.to_list it))

let test_anti_semi_join () =
  let schema = Schema.make [ { Schema.name = "x"; ty = Schema.TInt } ] in
  let left () = Iterator.of_tuples schema [| [| v_int 1 |]; [| v_int 2 |]; [| v_int 3 |] |] in
  let right () = Iterator.of_tuples schema [| [| v_int 2 |] |] in
  let anti =
    Op_join.anti_join ~left:(left ()) ~right:(right ()) ~left_cols:[| 0 |] ~right_cols:[| 0 |] ()
  in
  let vals it = List.map (fun t -> Value.as_int (Tuple.get t 0)) (Iterator.to_list it) in
  Alcotest.(check (list int)) "anti" [ 1; 3 ] (vals anti);
  let semi =
    Op_join.semi_join ~left:(left ()) ~right:(right ()) ~left_cols:[| 0 |] ~right_cols:[| 0 |] ()
  in
  Alcotest.(check (list int)) "semi" [ 2 ] (vals semi)

let test_index_probe_plan_node () =
  let cat = make_catalog () in
  let plan =
    Physical.IndexProbe { table = "People"; alias = Some "P"; cols = [ "city" ]; key = [| v_int 10 |]; pred = None }
  in
  Alcotest.(check int) "two residents" 2 (List.length (Physical.run cat plan));
  let filtered =
    Physical.IndexProbe
      {
        table = "People";
        alias = Some "P";
        cols = [ "city" ];
        key = [| v_int 10 |];
        pred = Some (Expr.Contains (Expr.Col 1, "enzyme"));
      }
  in
  Alcotest.(check int) "with residual pred" 1 (List.length (Physical.run cat filtered))

let test_value_extraction_errors () =
  Alcotest.check_raises "as_int on str" (Invalid_argument "Value.as_int: x") (fun () ->
      ignore (Value.as_int (v_str "x")));
  Alcotest.check_raises "as_string on int" (Invalid_argument "Value.as_string: 3") (fun () ->
      ignore (Value.as_string (v_int 3)));
  Alcotest.(check (float 1e-9)) "as_float coerces int" 4.0 (Value.as_float (v_int 4))

let test_tuple_helpers () =
  let t = [| v_int 1; v_str "a"; v_int 3 |] in
  Alcotest.(check bool) "project" true
    (Tuple.equal (Tuple.project t [| 2; 0 |]) [| v_int 3; v_int 1 |]);
  Alcotest.(check bool) "concat" true
    (Tuple.equal (Tuple.concat t [| v_int 9 |]) [| v_int 1; v_str "a"; v_int 3; v_int 9 |]);
  Alcotest.(check int) "compare_at equal" 0 (Tuple.compare_at [| 0; 2 |] t t);
  Alcotest.(check bool) "hash consistent" true (Tuple.hash t = Tuple.hash (Array.copy t))

let test_iterator_helpers () =
  let schema = Schema.make [ { Schema.name = "x"; ty = Schema.TInt } ] in
  let it = Iterator.of_tuples schema [| [| v_int 1 |]; [| v_int 2 |] |] in
  Alcotest.(check int) "count" 2 (Iterator.count it);
  (* of_tuples re-opens. *)
  Alcotest.(check int) "count again" 2 (Iterator.count it)

(* --- DGJ operators ----------------------------------------------------- *)

(* Group table: groups g in score order; fact table F expands each group;
   dims filter.  Mirrors TopInfo/LeftTops/Protein. *)
let dgj_catalog () =
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
        (Schema.make [ { Schema.name = "ID"; ty = Schema.TInt }; { Schema.name = "tag"; ty = Schema.TStr } ])
      ~primary_key:"ID" ()
  in
  (* Three groups: TID 1 (score 3.0) has entities failing the predicate,
     TID 2 (score 2.0) has a hit, TID 3 (score 1.0) has hits. *)
  List.iter (fun (tid, s) -> Table.insert_values g [ v_int tid; Value.Float s ]) [ (1, 3.0); (2, 2.0); (3, 1.0) ];
  List.iter
    (fun (tid, e) -> Table.insert_values f [ v_int tid; v_int e ])
    [ (1, 100); (1, 101); (2, 102); (2, 103); (3, 104); (3, 105); (3, 106) ];
  List.iter
    (fun (id, tag) -> Table.insert_values d [ v_int id; v_str tag ])
    [ (100, "no"); (101, "no"); (102, "no"); (103, "yes"); (104, "yes"); (105, "yes"); (106, "no") ];
  cat

let dgj_stack cat ~impl =
  let g = Catalog.find cat "G" in
  let grouped = Op_scan.grouped_by_tuple (Op_scan.ordered g ~desc:true ~cols:[ "score" ]) in
  let fact =
    Op_dgj.idgj ~outer:grouped ~table:(Catalog.find cat "F") ~table_cols:[ "TID" ] ~outer_cols:[| 0 |] ()
  in
  let pred = Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (v_str "yes")) in
  let mk =
    match impl with
    | `I ->
        fun ~outer ~table ~table_cols ~outer_cols ?pred ?residual () ->
          Op_dgj.idgj ~outer ~table ~table_cols ~outer_cols ?pred ?residual ()
    | `H -> Op_dgj.hdgj
  in
  mk ~outer:fact ~table:(Catalog.find cat "D") ~table_cols:[ "ID" ] ~outer_cols:[| 3 |] ~pred ()

let test_dgj_group_order_and_content impl () =
  let cat = dgj_catalog () in
  let it = dgj_stack cat ~impl in
  it.Iterator.open_ ();
  let seen = ref [] in
  let rec drain () =
    match it.Iterator.next () with
    | Some t ->
        seen := (it.Iterator.last_group (), Value.as_int (Tuple.get t 0)) :: !seen;
        drain ()
    | None -> ()
  in
  drain ();
  it.Iterator.close ();
  let seen = List.rev !seen in
  (* Group 0 = TID 1 (highest score): no matches.  Group 1 = TID 2: one
     match.  Group 2 = TID 3: two matches. *)
  Alcotest.(check (list (pair int int))) "group order and TIDs" [ (1, 2); (2, 3); (2, 3) ] seen

let test_dgj_first_match_early_termination impl () =
  let cat = dgj_catalog () in
  let it = dgj_stack cat ~impl in
  let witnesses = Op_dgj.first_match_per_group it ~k:10 in
  let tids = List.map (fun (_, t) -> Value.as_int (Tuple.get t 0)) witnesses in
  Alcotest.(check (list int)) "one witness per group, score order" [ 2; 3 ] tids

let test_dgj_k_limits_groups impl () =
  let cat = dgj_catalog () in
  let it = dgj_stack cat ~impl in
  let witnesses = Op_dgj.first_match_per_group it ~k:1 in
  Alcotest.(check int) "stops after k" 1 (List.length witnesses)

let test_idgj_saves_probes_vs_full_drain () =
  let cat = dgj_catalog () in
  let _, full_work =
    Iterator.Counters.with_scope (fun () -> Iterator.to_list (dgj_stack cat ~impl:`I))
  in
  let full = full_work.Iterator.Counters.index_probes in
  let _, early_work =
    Iterator.Counters.with_scope (fun () -> Op_dgj.first_match_per_group (dgj_stack cat ~impl:`I) ~k:1)
  in
  let early = early_work.Iterator.Counters.index_probes in
  Alcotest.(check bool) "early termination probes fewer" true (early < full)

(* --- SQL front end ------------------------------------------------------ *)

let test_sql_basic_select () =
  let cat = make_catalog () in
  let _, rows = Sql.query cat "SELECT P.name FROM People P WHERE P.city = 20" in
  Alcotest.(check int) "two rows" 2 (List.length rows)

let test_sql_contains_ct () =
  let cat = make_catalog () in
  let _, rows = Sql.query cat "SELECT P.ID FROM People P WHERE P.name.ct('enzyme')" in
  let ids = List.map (fun t -> Value.as_int (Tuple.get t 0)) rows in
  Alcotest.(check (list int)) "ct matches" [ 1; 5 ] (List.sort compare ids)

let test_sql_join () =
  let cat = make_catalog () in
  let _, rows =
    Sql.query cat
      "SELECT P.name, C.cname FROM People P, Cities C WHERE P.city = C.ID AND C.cname = 'haifa'"
  in
  Alcotest.(check int) "haifa residents" 2 (List.length rows)

let test_sql_distinct_order_fetch () =
  let cat = make_catalog () in
  let _, rows =
    Sql.query cat
      "SELECT DISTINCT P.city AS c FROM People P ORDER BY c DESC FETCH FIRST 2 ROWS ONLY"
  in
  let cs = List.map (fun t -> Value.as_int (Tuple.get t 0)) rows in
  Alcotest.(check (list int)) "top cities" [ 30; 20 ] cs

let test_sql_union () =
  let cat = make_catalog () in
  let _, rows =
    Sql.query cat
      "SELECT P.ID FROM People P WHERE P.city = 10 UNION SELECT P.ID FROM People P WHERE P.name.ct('enzyme')"
  in
  (* city 10 -> {1,2}; enzyme -> {1,5}; distinct union -> {1,2,5}. *)
  Alcotest.(check int) "union distinct" 3 (List.length rows)

let test_sql_not_exists () =
  let cat = make_catalog () in
  (* Cities with no residents: none in this data; then delete-free check with
     a person filter: cities where nobody matching 'enzyme' lives -> seoul. *)
  let _, rows =
    Sql.query cat
      "SELECT C.cname FROM Cities C WHERE NOT EXISTS (SELECT 1 FROM People P WHERE P.city = C.ID AND P.name.ct('enzyme'))"
  in
  let names = List.map (fun t -> Value.as_string (Tuple.get t 0)) rows in
  Alcotest.(check (list string)) "no enzyme residents" [ "seoul" ] (List.sort compare names)

let test_sql_exists () =
  let cat = make_catalog () in
  let _, rows =
    Sql.query cat
      "SELECT C.cname FROM Cities C WHERE EXISTS (SELECT 1 FROM People P WHERE P.city = C.ID AND P.name.ct('kinase'))"
  in
  let names = List.map (fun t -> Value.as_string (Tuple.get t 0)) rows in
  Alcotest.(check (list string)) "kinase city" [ "haifa" ] names

let test_sql_natural_join_alias () =
  (* The paper's "Uni_encodes JOIN Uni_contains as PUD" natural-join-alias
     form. *)
  let cat = Catalog.create () in
  let ue =
    Catalog.create_table cat ~name:"Uni_encodes"
      ~schema:
        (Schema.make [ { Schema.name = "UID"; ty = Schema.TInt }; { Schema.name = "PID"; ty = Schema.TInt } ])
      ()
  in
  let uc =
    Catalog.create_table cat ~name:"Uni_contains"
      ~schema:
        (Schema.make [ { Schema.name = "UID"; ty = Schema.TInt }; { Schema.name = "DID"; ty = Schema.TInt } ])
      ()
  in
  List.iter (fun (u, p) -> Table.insert_values ue [ v_int u; v_int p ]) [ (103, 78); (150, 78); (103, 34) ];
  List.iter (fun (u, d) -> Table.insert_values uc [ v_int u; v_int d ]) [ (103, 215); (150, 215) ];
  let _, rows = Sql.query cat "SELECT PUD.PID, PUD.DID FROM Uni_encodes JOIN Uni_contains as PUD" in
  Alcotest.(check int) "natural join cardinality" 3 (List.length rows)

let test_sql_parse_error () =
  let cat = make_catalog () in
  (match Sql.query cat "SELECT FROM" with
  | exception (Sql_parser.Parse_error _) -> ()
  | _ -> Alcotest.fail "expected parse error");
  match Sql.query cat "SELECT X.w FROM People P" with
  | exception (Sql_binder.Bind_error _) -> ()
  | _ -> Alcotest.fail "expected bind error"

(* --- DGJ cost model ----------------------------------------------------- *)

let test_cost_hit_probabilities () =
  (* One level, K=1, rho=0.5: x1 = 0.5. *)
  let levels = [| { Dgj_cost.n_inner = 100; probe_cost = 1.0; pred_sel = 0.5; join_sel = 0.01 } |] in
  let x = Dgj_cost.hit_probabilities levels in
  Alcotest.(check (float 1e-9)) "x1" 0.5 x.(0);
  (* Two stacked levels multiply. *)
  let levels2 =
    [|
      { Dgj_cost.n_inner = 100; probe_cost = 1.0; pred_sel = 0.5; join_sel = 0.01 };
      { Dgj_cost.n_inner = 100; probe_cost = 1.0; pred_sel = 0.3; join_sel = 0.01 };
    |]
  in
  let x2 = Dgj_cost.hit_probabilities levels2 in
  Alcotest.(check (float 1e-9)) "x1 = rho1*rho2" 0.15 x2.(0)

let test_cost_np_monotone_in_card () =
  let levels = [| { Dgj_cost.n_inner = 100; probe_cost = 1.0; pred_sel = 0.3; join_sel = 0.01 } |] in
  let input k cards = { Dgj_cost.cards; levels; k; per_group_overhead = 1.0 } in
  let params = Dgj_cost.group_params (input 1 [| 1; 10; 100 |]) in
  let np i = match params.(i) with np, _, _ -> np in
  Alcotest.(check bool) "bigger group less likely to fail" true (np 0 > np 1 && np 1 > np 2)

let test_cost_more_k_costs_more () =
  let levels = [| { Dgj_cost.n_inner = 100; probe_cost = 1.0; pred_sel = 0.3; join_sel = 0.01 } |] in
  let cost k =
    Dgj_cost.expected_cost { Dgj_cost.cards = Array.make 20 5; levels; k; per_group_overhead = 1.0 }
  in
  Alcotest.(check bool) "monotone in k" true (cost 1 < cost 5 && cost 5 < cost 10)

let test_cost_selective_pred_costs_more () =
  (* With highly selective predicates, more groups must be opened. *)
  let mk sel = [| { Dgj_cost.n_inner = 100; probe_cost = 1.0; pred_sel = sel; join_sel = 0.01 } |] in
  let cost sel =
    Dgj_cost.expected_cost
      { Dgj_cost.cards = Array.make 50 3; levels = mk sel; k = 5; per_group_overhead = 1.0 }
  in
  Alcotest.(check bool) "selective costs more" true (cost 0.05 > cost 0.9)

(* --- optimizer ---------------------------------------------------------- *)

let opt_catalog () =
  let cat = dgj_catalog () in
  (* Enlarge to make cost differences meaningful. *)
  let g = Catalog.find cat "G" and f = Catalog.find cat "F" and d = Catalog.find cat "D" in
  for tid = 4 to 100 do
    Table.insert_values g [ v_int tid; Value.Float (float_of_int (200 - tid)) ];
    for e = 0 to 4 do
      let eid = 1000 + (tid * 10) + e in
      Table.insert_values f [ v_int tid; v_int eid ];
      Table.insert_values d [ v_int eid; v_str (if (tid + e) mod 3 = 0 then "yes" else "no") ]
    done
  done;
  cat

let opt_spec k =
  {
    Optimizer.group_table = "G";
    group_key = "TID";
    score_col = "score";
    group_pred = None;
    fact_table = "F";
    fact_group_col = "TID";
    dims =
      [
        {
          Optimizer.dim_table = "D";
          dim_alias = "D1";
          dim_key = "ID";
          fact_col = "E";
          dim_pred = Some (Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (v_str "yes")));
        };
      ];
    k;
    group_cards = None;
  }

let test_optimizer_regular_plan_correct () =
  let cat = opt_catalog () in
  let plan, _cost = Optimizer.regular_plan cat (opt_spec 5) in
  let rows = Physical.run cat plan in
  Alcotest.(check int) "k rows" 5 (List.length rows);
  (* Scores descending. *)
  let scores = List.map (fun t -> Value.as_float (Tuple.get t 1)) rows in
  let sorted = List.sort (fun a b -> compare b a) scores in
  Alcotest.(check (list (float 1e-9))) "descending" sorted scores

let test_optimizer_et_equals_regular () =
  let cat = opt_catalog () in
  let spec = opt_spec 5 in
  let reg_plan, _ = Optimizer.regular_plan cat spec in
  let reg = Physical.run cat reg_plan in
  let reg_tids = List.map (fun t -> Value.as_int (Tuple.get t 0)) reg in
  match Optimizer.best_et_plan cat spec with
  | None -> Alcotest.fail "no ET plan"
  | Some (_, _) ->
      let decision =
        {
          Optimizer.plan = (match Optimizer.best_et_plan cat spec with Some (p, _) -> p | None -> assert false);
          strategy = Optimizer.Early_termination;
          regular_cost = 0.0;
          et_cost = 0.0;
        }
      in
      let et = Optimizer.run_topk cat spec decision in
      let et_tids = List.map (fun (v, _) -> Value.as_int v) et in
      Alcotest.(check (list int)) "same top-k TIDs" reg_tids et_tids

let test_optimizer_choose_runs () =
  let cat = opt_catalog () in
  let spec = opt_spec 3 in
  let decision = Optimizer.choose cat spec in
  let results = Optimizer.run_topk cat spec decision in
  Alcotest.(check int) "k results" 3 (List.length results);
  Alcotest.(check bool) "costs computed" true
    (decision.Optimizer.regular_cost > 0.0 && decision.Optimizer.et_cost > 0.0)

let suites =
  [
    ( "rel.value",
      [
        Alcotest.test_case "total order" `Quick test_value_order;
        Alcotest.test_case "hash consistent" `Quick test_value_hash_consistent;
        Alcotest.test_case "width" `Quick test_value_width;
      ] );
    ( "rel.schema",
      [
        Alcotest.test_case "lookup" `Quick test_schema_lookup;
        Alcotest.test_case "duplicates rejected" `Quick test_schema_duplicate_rejected;
        Alcotest.test_case "qualify/concat" `Quick test_schema_qualify_concat;
        Alcotest.test_case "requalify" `Quick test_schema_requalify;
      ] );
    ( "rel.expr",
      [
        Alcotest.test_case "comparisons" `Quick test_expr_eval_cmp;
        Alcotest.test_case "boolean logic" `Quick test_expr_bool_logic;
        Alcotest.test_case "keyword containment" `Quick test_expr_contains_word_boundaries;
        Alcotest.test_case "conj flattens" `Quick test_expr_conj_flattens;
        Alcotest.test_case "keyword containment allocates nothing" `Quick test_expr_contains_allocates_nothing;
        QCheck_alcotest.to_alcotest prop_keyword_matches_oracle;
      ] );
    ( "rel.table",
      [
        Alcotest.test_case "insert + pk" `Quick test_table_insert_and_pk;
        Alcotest.test_case "arity check" `Quick test_table_arity_check;
        Alcotest.test_case "hash index" `Quick test_hash_index_probe;
        Alcotest.test_case "sorted index" `Quick test_sorted_index_order;
        Alcotest.test_case "index rebuild" `Quick test_index_rebuilt_after_insert;
      ] );
    ( "rel.stats",
      [
        Alcotest.test_case "histogram selectivity" `Quick test_histogram_selectivity;
        Alcotest.test_case "histogram nulls" `Quick test_histogram_nulls;
        Alcotest.test_case "contains selectivity" `Quick test_stats_contains_selectivity;
        Alcotest.test_case "join selectivity" `Quick test_stats_join_selectivity;
        QCheck_alcotest.to_alcotest prop_contains_estimate_oracle;
      ] );
    ( "rel.postings",
      [
        QCheck_alcotest.to_alcotest prop_keyword_rows_oracle;
        QCheck_alcotest.to_alcotest prop_row_filter_oracle;
        Alcotest.test_case "freshness: insert after build" `Quick test_postings_freshness;
        Alcotest.test_case "two domains racing a cold build" `Quick test_postings_cold_race;
      ] );
    ( "rel.operators",
      [
        Alcotest.test_case "scan with pred" `Quick test_scan_with_pred;
        Alcotest.test_case "filter + project" `Quick test_filter_project;
        Alcotest.test_case "sort + limit" `Quick test_sort_limit;
        Alcotest.test_case "distinct" `Quick test_distinct;
        Alcotest.test_case "union dedups" `Quick test_union_dedups;
        Alcotest.test_case "hash join" `Quick test_hash_join;
        Alcotest.test_case "index NL join" `Quick test_index_nl_join_equals_hash_join;
        Alcotest.test_case "anti/semi join" `Quick test_anti_semi_join;
        Alcotest.test_case "IndexProbe plan node" `Quick test_index_probe_plan_node;
        Alcotest.test_case "value extraction errors" `Quick test_value_extraction_errors;
        Alcotest.test_case "tuple helpers" `Quick test_tuple_helpers;
        Alcotest.test_case "iterator helpers" `Quick test_iterator_helpers;
      ] );
    ( "rel.dgj",
      [
        Alcotest.test_case "IDGJ group order" `Quick (test_dgj_group_order_and_content `I);
        Alcotest.test_case "HDGJ group order" `Quick (test_dgj_group_order_and_content `H);
        Alcotest.test_case "IDGJ early termination" `Quick (test_dgj_first_match_early_termination `I);
        Alcotest.test_case "HDGJ early termination" `Quick (test_dgj_first_match_early_termination `H);
        Alcotest.test_case "IDGJ k bound" `Quick (test_dgj_k_limits_groups `I);
        Alcotest.test_case "HDGJ k bound" `Quick (test_dgj_k_limits_groups `H);
        Alcotest.test_case "IDGJ probe savings" `Quick test_idgj_saves_probes_vs_full_drain;
      ] );
    ( "rel.sql",
      [
        Alcotest.test_case "basic select" `Quick test_sql_basic_select;
        Alcotest.test_case "ct() predicate" `Quick test_sql_contains_ct;
        Alcotest.test_case "join" `Quick test_sql_join;
        Alcotest.test_case "distinct/order/fetch" `Quick test_sql_distinct_order_fetch;
        Alcotest.test_case "union" `Quick test_sql_union;
        Alcotest.test_case "not exists" `Quick test_sql_not_exists;
        Alcotest.test_case "exists" `Quick test_sql_exists;
        Alcotest.test_case "natural join alias" `Quick test_sql_natural_join_alias;
        Alcotest.test_case "errors" `Quick test_sql_parse_error;
      ] );
    ( "rel.cost",
      [
        Alcotest.test_case "hit probabilities" `Quick test_cost_hit_probabilities;
        Alcotest.test_case "np monotone" `Quick test_cost_np_monotone_in_card;
        Alcotest.test_case "cost monotone in k" `Quick test_cost_more_k_costs_more;
        Alcotest.test_case "selective predicates cost more" `Quick test_cost_selective_pred_costs_more;
      ] );
    ( "rel.optimizer",
      [
        Alcotest.test_case "regular plan correct" `Quick test_optimizer_regular_plan_correct;
        Alcotest.test_case "ET matches regular" `Quick test_optimizer_et_equals_regular;
        Alcotest.test_case "choose + run" `Quick test_optimizer_choose_runs;
      ] );
  ]
