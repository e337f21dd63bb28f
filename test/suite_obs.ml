(* Tests for the observability subsystem (lib/obs + Op_stats): the
   stats-collecting iterator wrappers must not change query results, their
   counters must agree with the actual cardinalities, trace/report JSON
   must survive a parse round trip, and the EXPLAIN ANALYZE report must
   render the estimate-vs-actual columns. *)

open Topo_sql
module Obs = Topo_obs

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Paper database with the Protein-DNA derived tables registered. *)
let paper_catalog () =
  let cat = Biozon.Paper_db.catalog () in
  let _engine = Topo_core.Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:0 () in
  cat

let queries =
  [
    "SELECT P.ID, P.desc FROM Protein P WHERE P.desc.ct('enzyme')";
    "SELECT DISTINCT AT.TID FROM Protein P, DNA D, AllTops_Protein_DNA AT \
     WHERE P.desc.ct('enzyme') AND D.type = 'mRNA' AND P.ID = AT.E1 AND D.ID = AT.E2";
    "SELECT DISTINCT LT.TID, Top.score_freq AS SCORE \
     FROM Protein P, DNA D, LeftTops_Protein_DNA LT, TopInfo_Protein_DNA Top \
     WHERE P.desc.ct('enzyme') AND P.ID = LT.E1 AND D.ID = LT.E2 AND Top.TID = LT.TID \
     ORDER BY SCORE DESC FETCH FIRST 3 ROWS ONLY";
    "SELECT Top.simple, COUNT(*) AS n FROM TopInfo_Protein_DNA Top GROUP BY Top.simple";
  ]

(* (a) Instrumentation must be invisible: same tuples, same order. *)
let test_instrumented_matches_plain () =
  let cat = paper_catalog () in
  List.iter
    (fun sql ->
      let _, expected = Sql.query cat sql in
      let it, _stats = Physical.lower_instrumented cat (Sql.to_plan cat sql) in
      let actual = Iterator.to_list it in
      Alcotest.(check int) "cardinality" (List.length expected) (List.length actual);
      Alcotest.(check bool) "identical tuples" true (expected = actual))
    queries

(* (b) The root operator's row counter is the result cardinality, and every
   operator's protocol counters are coherent. *)
let test_op_stats_counts () =
  let cat = paper_catalog () in
  List.iter
    (fun sql ->
      let it, stats = Physical.lower_instrumented cat (Sql.to_plan cat sql) in
      let rows = Iterator.to_list it in
      Alcotest.(check int) "root rows = |result|" (List.length rows) stats.Op_stats.stats.Op_stats.rows;
      Op_stats.iter
        (fun s ->
          (* Some operators close eagerly (e.g. after materializing) and
             again when the parent's close propagates, so closes can exceed
             opens — but never the reverse. *)
          Alcotest.(check bool) "closed at least once per open" true
            (s.Op_stats.closes >= s.Op_stats.opens);
          Alcotest.(check bool) "opened at least once" true (s.Op_stats.opens >= 1);
          Alcotest.(check bool) "nexts >= rows" true (s.Op_stats.nexts >= s.Op_stats.rows);
          Alcotest.(check bool) "time non-negative" true (s.Op_stats.time_s >= 0.0))
        stats)
    queries

(* The stats tree mirrors the plan tree. *)
let test_stats_tree_shape () =
  let cat = paper_catalog () in
  let plan = Sql.to_plan cat (List.nth queries 2) in
  let it, stats = Physical.lower_instrumented cat plan in
  ignore (Iterator.to_list it);
  let rec shape_matches (p : Physical.t) (s : Op_stats.annotated) =
    Physical.node_label p = s.Op_stats.stats.Op_stats.label
    && List.length (Physical.children p) = List.length s.Op_stats.children
    && List.for_all2 shape_matches (Physical.children p) s.Op_stats.children
  in
  Alcotest.(check bool) "stats mirror the plan" true (shape_matches plan stats)

(* (c) Trace JSON round-trips through the parser. *)
let test_trace_json_roundtrip () =
  let trace = Obs.Trace.create () in
  Obs.Trace.with_span trace "outer" ~tags:[ ("k", "10"); ("scheme", "Freq") ] (fun () ->
      Obs.Trace.with_span trace "inner" (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id)));
      Obs.Trace.with_span trace "sibling" ~tags:[ ("fact", "AllTops_Protein_DNA") ] (fun () -> ()));
  let json = Obs.Trace.to_json trace in
  (match Obs.Json.parse (Obs.Json.to_string json) with
  | Ok parsed -> Alcotest.(check bool) "compact round trip" true (Obs.Json.equal json parsed)
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg));
  match Obs.Json.parse (Obs.Json.to_string ~pretty:true json) with
  | Ok parsed -> Alcotest.(check bool) "pretty round trip" true (Obs.Json.equal json parsed)
  | Error msg -> Alcotest.fail ("pretty parse failed: " ^ msg)

let test_trace_structure () =
  let trace = Obs.Trace.create () in
  Obs.Trace.with_span trace "root" (fun () ->
      Obs.Trace.with_span trace "child1" (fun () -> ());
      Obs.Trace.with_span trace "child2" (fun () -> ()));
  match Obs.Trace.roots trace with
  | [ root ] ->
      Alcotest.(check string) "root name" "root" (Obs.Trace.name root);
      Alcotest.(check (list string)) "children in order" [ "child1"; "child2" ]
        (List.map Obs.Trace.name (Obs.Trace.children root));
      Alcotest.(check bool) "duration non-negative" true (Obs.Trace.duration_s root >= 0.0);
      let text = Obs.Trace.to_text trace in
      Alcotest.(check bool) "text shows tree" true
        (contains text "root" && contains text "  child1")
  | l -> Alcotest.fail (Printf.sprintf "expected 1 root span, got %d" (List.length l))

(* JSON codec corner cases. *)
let test_json_escapes_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("quote\"backslash\\", Obs.Json.Str "tab\tnewline\ncontrol\x01");
        ("unicode", Obs.Json.Str "prot\xc3\xa9ine");
        ("numbers", Obs.Json.Arr [ Obs.Json.Num 0.0; Obs.Json.Num (-12.5); Obs.Json.Num 1e17; Obs.Json.int 42 ]);
        ("null+bool", Obs.Json.Arr [ Obs.Json.Null; Obs.Json.Bool true; Obs.Json.Bool false ]);
      ]
  in
  match Obs.Json.parse (Obs.Json.to_string v) with
  | Ok parsed -> Alcotest.(check bool) "escape round trip" true (Obs.Json.equal v parsed)
  | Error msg -> Alcotest.fail msg

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed input %S" bad)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "tru"; "1 2"; "{\"a\" 1}" ]

(* EXPLAIN ANALYZE: report totals, rendering, and JSON round trip. *)
let test_explain_analyze_report () =
  let cat = paper_catalog () in
  List.iter
    (fun sql ->
      let report, rows = Obs.Explain_analyze.of_sql cat sql in
      Alcotest.(check int) "row_count" (List.length rows) report.Obs.Explain_analyze.row_count;
      let root = report.Obs.Explain_analyze.root in
      Alcotest.(check int) "root actual_rows" (List.length rows)
        root.Obs.Explain_analyze.actual_rows;
      let text = Obs.Explain_analyze.to_text report in
      Alcotest.(check bool) "renders rows" true (contains text "rows=");
      Alcotest.(check bool) "renders estimates" true (contains text "est=");
      Alcotest.(check bool) "renders next() calls" true (contains text "nexts=");
      Alcotest.(check bool) "renders wall time" true (contains text "time=");
      let json = Obs.Explain_analyze.to_json report in
      match Obs.Json.parse (Obs.Json.to_string ~pretty:true json) with
      | Ok parsed -> Alcotest.(check bool) "json round trip" true (Obs.Json.equal json parsed)
      | Error msg -> Alcotest.fail msg)
    queries

let test_misestimate_flag () =
  (* est/actual within 10x in both directions is unflagged; beyond is
     flagged — checked via the report on a tiny query plus the rule on the
     rendered output of misestimated. *)
  let cat = paper_catalog () in
  let report, _ = Obs.Explain_analyze.of_sql cat (List.hd queries) in
  let flagged = Obs.Explain_analyze.misestimated report in
  List.iter
    (fun (n : Obs.Explain_analyze.node) ->
      let a = float_of_int n.Obs.Explain_analyze.actual_rows in
      let e = n.Obs.Explain_analyze.est_rows in
      let off = if a < 0.5 then e >= 10.0 else e /. a > 10.0 || a /. e > 10.0 in
      Alcotest.(check bool) "flagged nodes really off by 10x" true off)
    flagged

(* Engine.run_request ~traces:true records a span tree rooted at the
   method name. *)
let test_engine_trace () =
  let cat = Biozon.Paper_db.catalog () in
  let engine = Topo_core.Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:0 () in
  let q = Topo_core.Query.q1 cat in
  let o =
    Topo_core.Engine.run_request engine ~traces:true
      (Topo_core.Request.make ~k:5 Topo_core.Engine.Fast_top_k q)
  in
  let r = Topo_core.Request.get_done o and trace = Option.get o.Topo_core.Request.trace in
  Alcotest.(check bool) "query returned results" true (r.Topo_core.Request.ranked <> []);
  match Obs.Trace.roots trace with
  | [ root ] ->
      Alcotest.(check string) "root span is the method" "Fast-Top-k" (Obs.Trace.name root);
      Alcotest.(check bool) "k tag recorded" true
        (List.mem ("k", "5") (Obs.Trace.tags root));
      Alcotest.(check bool) "has phase spans" true (Obs.Trace.children root <> [])
  | l -> Alcotest.fail (Printf.sprintf "expected 1 root span, got %d" (List.length l))

(* A -Opt call that chooses the regular plan runs the plan [choose]
   priced: its trace has one "choose" span and no "optimize" span, and
   its answer and work are those of the matching Full-Top-k or
   Fast-Top-k call. *)
let test_opt_regular_runs_priced_plan () =
  let open Topo_core in
  let cat = Biozon.Generator.generate (Biozon.Generator.scale 0.05 Biozon.Generator.default) in
  let engine = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:3 () in
  let endpoints entity =
    Query.endpoint cat entity
    :: List.map (fun kw -> Query.keyword cat entity ~col:"desc" ~kw) [ "membrane"; "zinc"; "putative" ]
  in
  let rec count name span =
    List.fold_left (fun n c -> n + count name c) (if Obs.Trace.name span = name then 1 else 0) (Obs.Trace.children span)
  in
  let spans name trace = List.fold_left (fun n root -> n + count name root) 0 (Obs.Trace.roots trace) in
  let regular = ref 0 in
  List.iter
    (fun (opt, plain) ->
      List.iter
        (fun q ->
          List.iter
            (fun k ->
              let req = Request.make ~k opt q in
              let o = Engine.run_request engine ~traces:true req in
              let r = Request.get_done o in
              if r.Request.strategy = Some Optimizer.Regular then begin
                incr regular;
                let trace = Option.get o.Request.trace in
                let what = Request.to_string req in
                Alcotest.(check int) (what ^ ": one choose span") 1 (spans "choose" trace);
                Alcotest.(check int) (what ^ ": no optimize span") 0 (spans "optimize" trace);
                let p = Engine.run_request engine { req with Request.method_ = plain } in
                Alcotest.(check (list (pair int (option (float 0.0)))))
                  (what ^ ": ranked list") (Request.get_done p).Request.ranked r.Request.ranked;
                Alcotest.(check bool) (what ^ ": counters") true (p.Request.counters = o.Request.counters)
              end)
            [ 1; 10; 1000 ])
        (List.concat_map (fun e1 -> List.map (Query.make e1) (endpoints "DNA")) (endpoints "Protein")))
    [ (Engine.Full_top_k_opt, Engine.Full_top_k); (Engine.Fast_top_k_opt, Engine.Fast_top_k) ];
  Alcotest.(check bool) (Printf.sprintf "%d regular -Opt calls checked" !regular) true (!regular > 0)

let suites =
  [
    ( "obs.op_stats",
      [
        Alcotest.test_case "instrumented = plain results" `Quick test_instrumented_matches_plain;
        Alcotest.test_case "counters match cardinalities" `Quick test_op_stats_counts;
        Alcotest.test_case "stats tree mirrors plan" `Quick test_stats_tree_shape;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "json round trip" `Quick test_trace_json_roundtrip;
        Alcotest.test_case "span tree structure" `Quick test_trace_structure;
        Alcotest.test_case "engine run traced" `Quick test_engine_trace;
        Alcotest.test_case "-Opt regular runs the plan it priced" `Quick test_opt_regular_runs_priced_plan;
      ] );
    ( "obs.json",
      [
        Alcotest.test_case "escapes round trip" `Quick test_json_escapes_roundtrip;
        Alcotest.test_case "rejects malformed input" `Quick test_json_parse_errors;
      ] );
    ( "obs.explain_analyze",
      [
        Alcotest.test_case "report totals and rendering" `Quick test_explain_analyze_report;
        Alcotest.test_case "misestimate flag rule" `Quick test_misestimate_flag;
      ] );
  ]
