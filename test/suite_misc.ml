(* Remaining corners: schema-path enumeration cross-checked against a naive
   walker, Definition 2's union mechanics on the paper's own paths, context
   helpers, PRNG edge cases, and table rendering. *)

open Topo_core
module Sg = Topo_graph.Schema_graph

(* --- schema paths vs a naive reference walker --------------------------------- *)

let naive_walk_count schema ~from_ ~to_ ~max_len =
  (* Re-derive the path-class count with an independent implementation:
     enumerate label strings of all walks, normalize against reversal,
     count distinct. *)
  let rels = Sg.relationships schema in
  let steps_from ty =
    List.concat_map
      (fun (name, a, b) ->
        (if a = ty then [ (name, b) ] else []) @ if b = ty && a <> b then [ (name, a) ] else [])
      rels
  in
  let seen = Hashtbl.create 64 in
  let rec walk ty trail len =
    if len > 0 && ty = to_ then begin
      let fwd = String.concat "|" (List.rev trail) in
      let bwd = String.concat "|" trail in
      let key = if fwd <= bwd then fwd else bwd in
      Hashtbl.replace seen key ()
    end;
    if len < max_len then
      List.iter (fun (rel, next) -> walk next (next :: rel :: trail) (len + 1)) (steps_from ty)
  in
  walk from_ [ from_ ] 0;
  Hashtbl.length seen

let test_paths_match_naive_walker () =
  let schema = Biozon.Bschema.schema_graph () in
  List.iter
    (fun (t1, t2, l) ->
      let fast = List.length (Sg.paths schema ~from_:t1 ~to_:t2 ~max_len:l) in
      let naive = naive_walk_count schema ~from_:t1 ~to_:t2 ~max_len:l in
      Alcotest.(check int) (Printf.sprintf "%s-%s l=%d" t1 t2 l) naive fast)
    [
      ("Protein", "DNA", 3);
      ("Protein", "DNA", 4);
      ("Protein", "Interaction", 3);
      ("Unigene", "Unigene", 3);
      ("Family", "Pathway", 2);
    ]

(* --- Definition 2 union mechanics ----------------------------------------------- *)

let test_union_shares_edges () =
  (* l2 = 78-103-215 and l6 = 78-103-34-215 share the uni_encodes(78,103)
     edge: their union must have 4 nodes and 4 edges, not 5. *)
  let cat = Biozon.Paper_db.catalog () in
  let interner = Topo_util.Interner.create () in
  let dg = Biozon.Bschema.data_graph cat interner in
  let schema = Biozon.Bschema.schema_graph () in
  let find_path types =
    List.find (fun (p : Sg.path) -> p.Sg.types = types) (Sg.paths schema ~from_:"Protein" ~to_:"DNA" ~max_len:3)
  in
  let pud = find_path [| "Protein"; "Unigene"; "DNA" |] in
  let pupd = find_path [| "Protein"; "Unigene"; "Protein"; "DNA" |] in
  let g =
    Compute.union_of_representatives dg
      [ (pud, [| 78; 103; 215 |]); (pupd, [| 78; 103; 34; 215 |]) ]
  in
  Alcotest.(check int) "nodes" 4 (Topo_graph.Lgraph.node_count g);
  Alcotest.(check int) "edges (shared edge deduplicated)" 4 (Topo_graph.Lgraph.edge_count g)

let test_union_disjoint_paths () =
  (* l3 = 78-150-215 and l6 = 78-103-34-215 share only endpoints: 5 nodes,
     5 edges — the T4 shape. *)
  let cat = Biozon.Paper_db.catalog () in
  let interner = Topo_util.Interner.create () in
  let dg = Biozon.Bschema.data_graph cat interner in
  let schema = Biozon.Bschema.schema_graph () in
  let find_path types =
    List.find (fun (p : Sg.path) -> p.Sg.types = types) (Sg.paths schema ~from_:"Protein" ~to_:"DNA" ~max_len:3)
  in
  let pud = find_path [| "Protein"; "Unigene"; "DNA" |] in
  let pupd = find_path [| "Protein"; "Unigene"; "Protein"; "DNA" |] in
  let g =
    Compute.union_of_representatives dg
      [ (pud, [| 78; 150; 215 |]); (pupd, [| 78; 103; 34; 215 |]) ]
  in
  Alcotest.(check int) "nodes" 5 (Topo_graph.Lgraph.node_count g);
  Alcotest.(check int) "edges" 5 (Topo_graph.Lgraph.edge_count g)

(* --- context helpers -------------------------------------------------------------- *)

let test_class_exists_between () =
  let cat = Biozon.Paper_db.catalog () in
  let engine = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  let ctx = engine.Engine.ctx in
  let schema = ctx.Context.schema in
  let pud =
    List.find
      (fun (p : Sg.path) -> p.Sg.types = [| "Protein"; "Unigene"; "DNA" |])
      (Sg.paths schema ~from_:"Protein" ~to_:"DNA" ~max_len:3)
  in
  let key = Sg.path_key pud in
  Alcotest.(check bool) "(78,215) has PUD" true (Context.class_exists_between ctx key ~a:78 ~b:215);
  Alcotest.(check bool) "(32,215) lacks PUD" false (Context.class_exists_between ctx key ~a:32 ~b:215)

let test_satisfying_ids () =
  let cat = Biozon.Paper_db.catalog () in
  let engine = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  let ids =
    Context.satisfying_ids engine.Engine.ctx (Query.keyword cat "Protein" ~col:"desc" ~kw:"enzyme")
  in
  Alcotest.(check (array int)) "enzyme proteins sorted" [| 32; 44; 78 |] ids;
  let all = Context.satisfying_ids engine.Engine.ctx (Query.endpoint cat "Protein") in
  Alcotest.(check int) "all proteins" 4 (Array.length all)

(* --- prng tails -------------------------------------------------------------------- *)

let test_chance_extremes () =
  let prng = Topo_util.Prng.create 3 in
  Alcotest.(check bool) "p=1" true (Topo_util.Prng.chance prng 1.5);
  Alcotest.(check bool) "p=0" false (Topo_util.Prng.chance prng (-0.2))

(* --- pretty alignment ----------------------------------------------------------------- *)

let test_pretty_right_alignment () =
  let out =
    Topo_util.Pretty.render ~header:[ "name"; "n" ]
      ~aligns:[ Topo_util.Pretty.Left; Topo_util.Pretty.Right ]
      [ [ "a"; "5" ]; [ "bb"; "123" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (* The numeric column is right-aligned: "5" ends where "123" ends. *)
  let line_a = List.nth lines 2 and line_b = List.nth lines 3 in
  Alcotest.(check int) "same width" (String.length line_b) (String.length line_a);
  Alcotest.(check bool) "right aligned" true (String.length line_a > 0 && line_a.[String.length line_a - 1] = '5')

let suites =
  [
    ( "misc.schema_paths",
      [ Alcotest.test_case "matches naive walker" `Quick test_paths_match_naive_walker ] );
    ( "misc.union",
      [
        Alcotest.test_case "shared edges dedup (T3)" `Quick test_union_shares_edges;
        Alcotest.test_case "disjoint paths (T4)" `Quick test_union_disjoint_paths;
      ] );
    ( "misc.context",
      [
        Alcotest.test_case "class_exists_between" `Quick test_class_exists_between;
        Alcotest.test_case "satisfying_ids" `Quick test_satisfying_ids;
      ] );
    ( "misc.prng",
      [
        Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
      ] );
    ( "misc.pretty", [ Alcotest.test_case "right alignment" `Quick test_pretty_right_alignment ] );
  ]
