(* Tests for the graph kit: labeled graphs, canonical forms, isomorphism,
   schema graphs, instance path enumeration and the gluing enumerator. *)

open Topo_graph
module Interner = Topo_util.Interner

let mk_graph nodes edges =
  let g = Lgraph.empty () in
  List.iter (fun (id, label) -> Lgraph.add_node g ~id ~label) nodes;
  List.iter (fun (u, v, label) -> Lgraph.add_edge g ~u ~v ~label) edges;
  g

(* --- lgraph ------------------------------------------------------------ *)

let test_lgraph_basics () =
  let g = mk_graph [ (1, 10); (2, 20); (3, 10) ] [ (1, 2, 5); (2, 3, 5) ] in
  Alcotest.(check int) "nodes" 3 (Lgraph.node_count g);
  Alcotest.(check int) "edges" 2 (Lgraph.edge_count g);
  Alcotest.(check int) "degree" 2 (Lgraph.degree g 2);
  Alcotest.(check bool) "mem_edge" true (Lgraph.mem_edge g ~u:2 ~v:1 ~label:5);
  Alcotest.(check bool) "connected" true (Lgraph.connected g)

let test_lgraph_duplicate_edge_collapses () =
  let g = mk_graph [ (1, 10); (2, 20) ] [ (1, 2, 5); (2, 1, 5) ] in
  Alcotest.(check int) "one edge" 1 (Lgraph.edge_count g);
  (* Same endpoints, different label: kept as a distinct edge. *)
  Lgraph.add_edge g ~u:1 ~v:2 ~label:6;
  Alcotest.(check int) "two labels" 2 (Lgraph.edge_count g)

let test_lgraph_rejects_bad_edges () =
  let g = mk_graph [ (1, 10) ] [] in
  Alcotest.check_raises "self loop" (Invalid_argument "Lgraph.add_edge: self-loop") (fun () ->
      Lgraph.add_edge g ~u:1 ~v:1 ~label:0);
  Alcotest.check_raises "missing node" (Invalid_argument "Lgraph.add_edge: missing node 9") (fun () ->
      Lgraph.add_edge g ~u:1 ~v:9 ~label:0)

let test_lgraph_union () =
  let a = mk_graph [ (1, 10); (2, 20) ] [ (1, 2, 5) ] in
  let b = mk_graph [ (2, 20); (3, 10) ] [ (2, 3, 6) ] in
  let u = Lgraph.union a b in
  Alcotest.(check int) "union nodes" 3 (Lgraph.node_count u);
  Alcotest.(check int) "union edges" 2 (Lgraph.edge_count u)

let test_lgraph_disconnected () =
  let g = mk_graph [ (1, 10); (2, 20) ] [] in
  Alcotest.(check bool) "disconnected" false (Lgraph.connected g)

(* --- canonical forms ---------------------------------------------------- *)

let test_canon_iso_invariance () =
  (* Same path, different node ids. *)
  let a = mk_graph [ (1, 10); (2, 20); (3, 30) ] [ (1, 2, 5); (2, 3, 6) ] in
  let b = mk_graph [ (7, 30); (9, 10); (4, 20) ] [ (9, 4, 5); (4, 7, 6) ] in
  Alcotest.(check string) "same key" (Canon.key a) (Canon.key b)

let test_canon_distinguishes_labels () =
  let a = mk_graph [ (1, 10); (2, 20) ] [ (1, 2, 5) ] in
  let b = mk_graph [ (1, 10); (2, 20) ] [ (1, 2, 6) ] in
  let c = mk_graph [ (1, 10); (2, 30) ] [ (1, 2, 5) ] in
  Alcotest.(check bool) "edge label" true (Canon.key a <> Canon.key b);
  Alcotest.(check bool) "node label" true (Canon.key a <> Canon.key c)

let test_canon_distinguishes_structure () =
  (* Path of 4 vs star of 4, same label multiset. *)
  let path = mk_graph [ (1, 10); (2, 10); (3, 10); (4, 10) ] [ (1, 2, 5); (2, 3, 5); (3, 4, 5) ] in
  let star = mk_graph [ (1, 10); (2, 10); (3, 10); (4, 10) ] [ (1, 2, 5); (1, 3, 5); (1, 4, 5) ] in
  Alcotest.(check bool) "path <> star" true (Canon.key path <> Canon.key star)

let test_canon_symmetric_graph () =
  (* A 6-cycle with uniform labels exercises the individualization
     branch (refinement alone cannot make it discrete). *)
  let cycle ids =
    mk_graph
      (List.map (fun id -> (id, 10)) ids)
    (match ids with
      | [ a; b; c; d; e; f ] -> [ (a, b, 5); (b, c, 5); (c, d, 5); (d, e, 5); (e, f, 5); (f, a, 5) ]
      | _ -> assert false)
  in
  let a = cycle [ 1; 2; 3; 4; 5; 6 ] in
  let b = cycle [ 60; 10; 40; 20; 50; 30 ] in
  Alcotest.(check string) "cycles iso" (Canon.key a) (Canon.key b);
  (* 6-path with same labels differs. *)
  let path =
    mk_graph
      (List.map (fun id -> (id, 10)) [ 1; 2; 3; 4; 5; 6 ])
      [ (1, 2, 5); (2, 3, 5); (3, 4, 5); (4, 5, 5); (5, 6, 5) ]
  in
  Alcotest.(check bool) "cycle <> path" true (Canon.key a <> Canon.key path)

let test_canonical_order_is_permutation () =
  let g = mk_graph [ (3, 10); (7, 20); (9, 30) ] [ (3, 7, 5); (7, 9, 6) ] in
  let order = Canon.canonical_order g in
  Alcotest.(check (list int)) "permutation of nodes" [ 3; 7; 9 ] (List.sort compare order)

(* QCheck: canonical key invariant under random relabeling of node ids. *)
let gen_small_graph =
  QCheck.Gen.(
    let* n = int_range 2 7 in
    let* labels = array_size (return n) (int_range 0 2) in
    let* density = float_range 0.2 0.9 in
    let* edge_rolls = array_size (return (n * n)) (float_range 0.0 1.0) in
    let* edge_labels = array_size (return (n * n)) (int_range 100 101) in
    return (n, labels, density, edge_rolls, edge_labels))

let graph_of_spec (n, labels, density, edge_rolls, edge_labels) =
  let g = Lgraph.empty () in
  for i = 0 to n - 1 do
    Lgraph.add_node g ~id:i ~label:labels.(i)
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if edge_rolls.((i * n) + j) < density then
        Lgraph.add_edge g ~u:i ~v:j ~label:edge_labels.((i * n) + j)
    done
  done;
  g

let permute_graph perm g =
  let out = Lgraph.empty () in
  List.iter (fun id -> Lgraph.add_node out ~id:perm.(id) ~label:(Lgraph.node_label g id)) (Lgraph.nodes g);
  List.iter
    (fun { Lgraph.u; v; label } -> Lgraph.add_edge out ~u:perm.(u) ~v:perm.(v) ~label)
    (Lgraph.edges g);
  out

let prop_canon_invariant =
  QCheck.Test.make ~name:"canonical key invariant under relabeling" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* spec = gen_small_graph in
         let* seed = int_range 0 100000 in
         return (spec, seed)))
    (fun (spec, seed) ->
      let g = graph_of_spec spec in
      let n = (fun (n, _, _, _, _) -> n) spec in
      let prng = Topo_util.Prng.create seed in
      let perm = Array.init n (fun i -> i + 100) in
      Topo_util.Prng.shuffle prng perm;
      let h = permute_graph perm g in
      Canon.key g = Canon.key h)

let prop_canon_detects_edge_removal =
  QCheck.Test.make ~name:"key changes when an edge is dropped" ~count:200
    (QCheck.make gen_small_graph)
    (fun spec ->
      let g = graph_of_spec spec in
      match Lgraph.edges g with
      | [] -> QCheck.assume_fail ()
      | { Lgraph.u; v; label } :: _ ->
          (* Rebuild without the first edge. *)
          let h = Lgraph.empty () in
          List.iter (fun id -> Lgraph.add_node h ~id ~label:(Lgraph.node_label g id)) (Lgraph.nodes g);
          List.iter
            (fun e ->
              if not (e.Lgraph.u = u && e.Lgraph.v = v && e.Lgraph.label = label) then
                Lgraph.add_edge h ~u:e.Lgraph.u ~v:e.Lgraph.v ~label:e.Lgraph.label)
            (Lgraph.edges g);
          Canon.key g <> Canon.key h)

(* --- subgraph isomorphism ------------------------------------------------ *)

let test_iso_embeds_path_in_triangle () =
  let tri = mk_graph [ (1, 10); (2, 20); (3, 30) ] [ (1, 2, 5); (2, 3, 5); (1, 3, 5) ] in
  let path = mk_graph [ (8, 10); (9, 20) ] [ (8, 9, 5) ] in
  Alcotest.(check bool) "embeds" true (Iso.embeds ~pattern:path ~host:tri ());
  Alcotest.(check bool) "reverse does not" false (Iso.embeds ~pattern:tri ~host:path ())

let test_iso_respects_labels () =
  let host = mk_graph [ (1, 10); (2, 20) ] [ (1, 2, 5) ] in
  let bad_label = mk_graph [ (8, 10); (9, 20) ] [ (8, 9, 7) ] in
  Alcotest.(check bool) "edge label mismatch" false (Iso.embeds ~pattern:bad_label ~host ())

let test_iso_anchored () =
  let host = mk_graph [ (1, 10); (2, 20); (3, 10) ] [ (1, 2, 5); (3, 2, 5) ] in
  let pat = mk_graph [ (8, 10); (9, 20) ] [ (8, 9, 5) ] in
  Alcotest.(check bool) "anchor ok" true (Iso.embeds ~pattern:pat ~host ~anchors:[ (8, 3) ] ());
  (* Anchoring a pattern node on a wrong-label host node fails. *)
  Alcotest.(check bool) "anchor bad" false (Iso.embeds ~pattern:pat ~host ~anchors:[ (8, 2) ] ())

(* --- schema graph -------------------------------------------------------- *)

let biozon_schema () = Biozon.Bschema.schema_graph ()

let test_schema_ten_paths_p_d () =
  (* The Section 3.1 claim: ten schema paths of length <= 3 connect
     Proteins and DNAs. *)
  let paths = Schema_graph.paths (biozon_schema ()) ~from_:"Protein" ~to_:"DNA" ~max_len:3 in
  Alcotest.(check int) "ten paths" 10 (List.length paths)

let test_schema_path_lengths () =
  let paths = Schema_graph.paths (biozon_schema ()) ~from_:"Protein" ~to_:"DNA" ~max_len:3 in
  let by_len n = List.length (List.filter (fun p -> Schema_graph.path_length p = n) paths) in
  Alcotest.(check int) "one direct" 1 (by_len 1);
  Alcotest.(check int) "two of length 2" 2 (by_len 2);
  Alcotest.(check int) "seven of length 3" 7 (by_len 3)

let test_schema_path_key_reversal () =
  let p = { Schema_graph.types = [| "A"; "B"; "C" |]; rels = [| "r"; "s" |] } in
  Alcotest.(check string) "key equals reversed key" (Schema_graph.path_key p)
    (Schema_graph.path_key (Schema_graph.reverse p))

let test_schema_duplicate_relationship_rejected () =
  let g = Schema_graph.create () in
  Schema_graph.add_relationship g ~name:"r" ~from_:"A" ~to_:"B";
  Alcotest.check_raises "dup"
    (Invalid_argument "Schema_graph.add_relationship: duplicate r(B,A)") (fun () ->
      Schema_graph.add_relationship g ~name:"r" ~from_:"B" ~to_:"A")

(* Path-class keys agree with full graph isomorphism on schema paths. *)
let prop_path_key_matches_isomorphism =
  let schema = biozon_schema () in
  let paths = Array.of_list (Schema_graph.paths schema ~from_:"Protein" ~to_:"DNA" ~max_len:4) in
  QCheck.Test.make ~name:"path_key = graph isomorphism on schema paths" ~count:300
    QCheck.(pair (int_range 0 (Array.length paths - 1)) (int_range 0 (Array.length paths - 1)))
    (fun (i, j) ->
      let interner = Interner.create () in
      let pi = paths.(i) and pj = paths.(j) in
      let gi =
        Schema_graph.path_to_lgraph interner pi
          ~ids:(Array.init (Array.length pi.Schema_graph.types) (fun k -> k))
      in
      let gj =
        Schema_graph.path_to_lgraph interner pj
          ~ids:(Array.init (Array.length pj.Schema_graph.types) (fun k -> k + 50))
      in
      Canon.key gi = Canon.key gj = (Schema_graph.path_key pi = Schema_graph.path_key pj))

(* --- data graph ----------------------------------------------------------- *)

let paper_dg () =
  let cat = Biozon.Paper_db.catalog () in
  let interner = Interner.create () in
  (cat, Biozon.Bschema.data_graph cat interner)

let test_data_graph_counts () =
  let _, dg = paper_dg () in
  Alcotest.(check int) "nodes" 11 (Data_graph.node_count dg);
  Alcotest.(check int) "edges" 11 (Data_graph.edge_count dg)

let test_data_graph_entities_of_type () =
  let _, dg = paper_dg () in
  Alcotest.(check (array int)) "proteins" [| 32; 34; 44; 78 |] (Data_graph.entities_of_type dg "Protein");
  Alcotest.(check (array int)) "dnas" [| 214; 215; 742 |] (Data_graph.entities_of_type dg "DNA")

let find_path schema key =
  List.find
    (fun p -> Schema_graph.path_key p = key)
    (Schema_graph.paths schema ~from_:"Protein" ~to_:"DNA" ~max_len:3)

let pud_path schema =
  List.find
    (fun p -> Schema_graph.path_length p = 2 && Array.mem "Unigene" p.Schema_graph.types)
    (Schema_graph.paths schema ~from_:"Protein" ~to_:"DNA" ~max_len:2)

let test_instance_paths_pud () =
  let _, dg = paper_dg () in
  let schema = biozon_schema () in
  let p = pud_path schema in
  let found = ref [] in
  Data_graph.iter_instance_paths dg p ~f:(fun ids -> found := Array.to_list ids :: !found);
  let found = List.sort compare !found in
  (* P-U-D instances in Figure 6: 78-103-215, 78-150-215, 34-103-215,
     44-188-742, 44-194-742. *)
  Alcotest.(check (list (list int)))
    "all PUD instances"
    [ [ 34; 103; 215 ]; [ 44; 188; 742 ]; [ 44; 194; 742 ]; [ 78; 103; 215 ]; [ 78; 150; 215 ] ]
    found

let test_instance_paths_between () =
  let _, dg = paper_dg () in
  let schema = biozon_schema () in
  let p = pud_path schema in
  let count = ref 0 in
  Data_graph.iter_instance_paths_between dg p ~a:78 ~b:215 ~f:(fun _ -> incr count);
  Alcotest.(check int) "PS(78,215) has two PUD paths" 2 !count;
  ignore find_path

let test_instance_paths_simple_only () =
  (* P-U-P-D instances never revisit a node. *)
  let _, dg = paper_dg () in
  let schema = biozon_schema () in
  let pupd =
    List.find
      (fun p ->
        Schema_graph.path_length p = 3
        && p.Schema_graph.types = [| "Protein"; "Unigene"; "Protein"; "DNA" |])
      (Schema_graph.paths schema ~from_:"Protein" ~to_:"DNA" ~max_len:3)
  in
  Data_graph.iter_instance_paths dg pupd ~f:(fun ids ->
      let l = Array.to_list ids in
      Alcotest.(check int) "distinct nodes" (List.length l)
        (List.length (List.sort_uniq compare l)))

(* Every schema path with l <= 3 of the Figure 3 schema, in both
   orientations (same-type paths equal to their own reverse included),
   walked from every entity: the compiled walker's endpoints are
   [iter_instance_paths_from]'s last ids in the same order, and the same
   multiset as a naive search over sorted neighbor lists. *)
let test_compiled_walker_matches_enumeration () =
  let _, dg = paper_dg () in
  let schema = biozon_schema () in
  let types = Schema_graph.entities schema in
  let entities = List.concat_map (fun ty -> Array.to_list (Data_graph.entities_of_type dg ty)) types in
  let paths =
    List.concat_map
      (fun from_ -> List.concat_map (fun to_ -> Schema_graph.paths schema ~from_ ~to_ ~max_len:3) types)
      types
    |> List.concat_map (fun p -> [ p; Schema_graph.reverse p ])
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "some paths equal their reverse" true
    (List.exists (fun p -> p = Schema_graph.reverse p) paths);
  let rec naive (p : Schema_graph.path) pos on_path id =
    if pos = Schema_graph.path_length p then [ id ]
    else
      Data_graph.neighbors_by dg ~id ~rel:p.Schema_graph.rels.(pos) ~ty:p.Schema_graph.types.(pos + 1)
      |> List.filter (fun n -> not (List.mem n on_path))
      |> List.concat_map (fun n -> naive p (pos + 1) (n :: on_path) n)
  in
  let nonempty = ref 0 in
  List.iter
    (fun (p : Schema_graph.path) ->
      let c = Data_graph.compile dg p in
      let sources = Data_graph.entities_of_type dg p.Schema_graph.types.(0) in
      List.iter
        (fun source ->
          let ends = ref [] and lasts = ref [] in
          Data_graph.iter_ends dg c ~source ~f:(fun b -> ends := b :: !ends);
          Data_graph.iter_instance_paths_from dg p ~source ~f:(fun ids ->
              lasts := ids.(Array.length ids - 1) :: !lasts);
          let name = Printf.sprintf "%s from %d" (Schema_graph.path_to_string p) source in
          Alcotest.(check (list int)) name (List.rev !lasts) (List.rev !ends);
          let expected = if Array.mem source sources then naive p 0 [ source ] source else [] in
          Alcotest.(check (list int)) (name ^ ", naive") (List.sort compare expected) (List.sort compare !ends);
          if !ends <> [] then incr nonempty)
        entities)
    paths;
  Alcotest.(check bool) "walks found paths" true (!nonempty > 0)

(* Random small instance graphs: three types, three relations, ids not
   dense, duplicate edges (in both directions) and cycles.  The walks over
   the frozen graph must yield exactly what a depth-first search over
   plain adjacency lists yields, in the same order. *)
type random_graph = {
  nodes : (int * string) list;  (* registration order *)
  edges : (string * int * int) list;  (* insertion order, repeats included *)
  path : Schema_graph.path;
}

let rg_types = [| "A"; "B"; "C" |]

let rg_rels = [| "r"; "s"; "t" |]

let gen_random_graph =
  let open QCheck.Gen in
  int_range 1 9 >>= fun n ->
  list_repeat n (int_range 0 2) >>= fun tys ->
  let nodes = List.mapi (fun i ty -> ((i * 7) + 3, rg_types.(ty))) tys in
  let ids = Array.of_list (List.map fst nodes) in
  list_size (int_range 0 24) (triple (int_range 0 2) (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  >>= fun raw ->
  let edges = List.map (fun (r, a, b) -> (rg_rels.(r), ids.(a), ids.(b))) raw in
  int_range 1 3 >>= fun l ->
  list_repeat (l + 1) (int_range 0 2) >>= fun path_tys ->
  list_repeat l (int_range 0 2) >|= fun path_rels ->
  let path =
    {
      Schema_graph.types = Array.of_list (List.map (fun i -> rg_types.(i)) path_tys);
      rels = Array.of_list (List.map (fun i -> rg_rels.(i)) path_rels);
    }
  in
  { nodes; edges; path }

let print_random_graph g =
  Printf.sprintf "nodes [%s] edges [%s] path %s"
    (String.concat "; " (List.map (fun (id, ty) -> Printf.sprintf "%d:%s" id ty) g.nodes))
    (String.concat "; " (List.map (fun (r, a, b) -> Printf.sprintf "%d-%s-%d" a r b) g.edges))
    (Schema_graph.path_to_string g.path)

let build_random_graph g =
  let dg = Data_graph.create (Interner.create ()) in
  List.iter (fun (id, ty) -> Data_graph.add_entity dg ~ty ~id) g.nodes;
  List.iter (fun (rel, a, b) -> Data_graph.add_relationship dg ~rel ~a ~b) g.edges;
  dg

(* Per-node adjacency lists in insertion order: an edge is appended at
   [a], then at [b], the first time its unordered (a, b, rel) is seen. *)
let naive_adjacency g =
  let adj = Hashtbl.create 16 and seen = Hashtbl.create 16 in
  List.iter
    (fun (rel, a, b) ->
      let key = (min a b, max a b, rel) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let push u v = Hashtbl.replace adj u (Option.value ~default:[] (Hashtbl.find_opt adj u) @ [ (rel, v) ]) in
        push a b;
        push b a
      end)
    g.edges;
  fun u -> Option.value ~default:[] (Hashtbl.find_opt adj u)

let naive_paths_from g (p : Schema_graph.path) source =
  let adj = naive_adjacency g and ty id = List.assoc id g.nodes in
  let l = Schema_graph.path_length p in
  let rec go pos rev_path =
    if pos = l then [ List.rev rev_path ]
    else
      List.concat_map
        (fun (rel, v) ->
          if rel = p.Schema_graph.rels.(pos) && (not (List.mem v rev_path)) && ty v = p.Schema_graph.types.(pos + 1)
          then go (pos + 1) (v :: rev_path)
          else [])
        (adj (List.hd rev_path))
  in
  if List.mem_assoc source g.nodes && ty source = p.Schema_graph.types.(0) then go 0 [ source ] else []

let prop_frozen_walk_matches_adjacency_dfs =
  QCheck.Test.make ~name:"frozen-graph walks = adjacency-list DFS, same order" ~count:300
    (QCheck.make ~print:print_random_graph gen_random_graph)
    (fun g ->
      let dg = build_random_graph g in
      let p = g.path in
      let l = Schema_graph.path_length p in
      let c = Data_graph.compile dg p in
      let sources = List.map fst g.nodes @ [ 1000 ] in
      let ends_ok =
        List.for_all
          (fun source ->
            let ends = ref [] in
            Data_graph.iter_ends dg c ~source ~f:(fun b -> ends := b :: !ends);
            List.rev !ends = List.map (fun path -> List.nth path l) (naive_paths_from g p source))
          sources
      in
      let all = ref [] in
      Data_graph.iter_instance_paths dg p ~f:(fun ids -> all := Array.to_list ids :: !all);
      let palindromic = p = Schema_graph.reverse p in
      let expected =
        List.sort compare (List.map fst (List.filter (fun (_, ty) -> ty = p.Schema_graph.types.(0)) g.nodes))
        |> List.concat_map (naive_paths_from g p)
        |> List.filter (fun path -> (not palindromic) || List.hd path < List.nth path l)
      in
      ends_ok && List.rev !all = expected)

let test_add_after_freeze_is_walked () =
  let dg = Data_graph.create (Interner.create ()) in
  Data_graph.add_entity dg ~ty:"A" ~id:1;
  Data_graph.add_entity dg ~ty:"B" ~id:2;
  Data_graph.add_entity dg ~ty:"B" ~id:3;
  Data_graph.add_relationship dg ~rel:"r" ~a:1 ~b:2;
  Data_graph.freeze dg;
  let p = { Schema_graph.types = [| "A"; "B" |]; rels = [| "r" |] } in
  let c = Data_graph.compile dg p in
  let ends source =
    let out = ref [] in
    Data_graph.iter_ends dg c ~source ~f:(fun b -> out := b :: !out);
    List.rev !out
  in
  Alcotest.(check (list int)) "frozen" [ 2 ] (ends 1);
  Data_graph.add_relationship dg ~rel:"r" ~a:3 ~b:1;
  Alcotest.(check (list int)) "edge added after the freeze" [ 2; 3 ] (ends 1);
  Alcotest.(check (list int)) "neighbors see it too" [ 2; 3 ] (Data_graph.neighbors_by dg ~id:1 ~rel:"r" ~ty:"B");
  Data_graph.add_entity dg ~ty:"A" ~id:4;
  Alcotest.(check (list int)) "entity added after the freeze" [] (ends 4);
  Data_graph.add_relationship dg ~rel:"r" ~a:4 ~b:2;
  Alcotest.(check (list int)) "and its edge" [ 2 ] (ends 4);
  Alcotest.(check int) "edge count" 3 (Data_graph.edge_count dg)

(* --- gluing enumeration ---------------------------------------------------- *)

let test_glue_fig8_two_topologies () =
  (* Figure 8: all possible 2-topologies between Protein and DNA.  Three
     schema paths (P-D, P-U-D, P-I-D) with single intermediates of distinct
     types: gluings = nonempty subsets = 7 distinct topologies. *)
  let interner = Interner.create () in
  let result = Glue.enumerate interner (biozon_schema ()) ~from_:"Protein" ~to_:"DNA" ~max_len:2 () in
  Alcotest.(check int) "seven 2-topologies" 7 result.Glue.count;
  Alcotest.(check bool) "not truncated" false result.Glue.truncated

let test_glue_counts_sharing () =
  (* Two paths with same-type intermediates: A-r-X-s-B and A-t-X-u-B can
     share X or not: subsets {p1}, {p2}, {p1,p2} split, {p1,p2} glued = 4. *)
  let s = Schema_graph.create () in
  Schema_graph.add_relationship s ~name:"r" ~from_:"A" ~to_:"X";
  Schema_graph.add_relationship s ~name:"s" ~from_:"X" ~to_:"B";
  Schema_graph.add_relationship s ~name:"t" ~from_:"A" ~to_:"X";
  Schema_graph.add_relationship s ~name:"u" ~from_:"X" ~to_:"B";
  let interner = Interner.create () in
  let result = Glue.enumerate interner s ~from_:"A" ~to_:"B" ~max_len:2 () in
  (* Schema paths A..B of length <= 2: A-r-X-s-B, A-r-X-u-B, A-t-X-s-B,
     A-t-X-u-B -> 4 singletons; pairs (6) x {merged, split}; triples (4);
     quad (1) with partitions of 4 X-slots... just check it found more than
     the 15 subsets and nothing crashed. *)
  Alcotest.(check bool) "sharing multiplies" true (result.Glue.count > 15)

let test_glue_respects_budget () =
  let interner = Interner.create () in
  let result =
    Glue.enumerate interner (biozon_schema ()) ~from_:"Protein" ~to_:"DNA" ~max_len:3 ~collect:false
      ~max_gluings:100 ()
  in
  Alcotest.(check bool) "truncated" true result.Glue.truncated;
  Alcotest.(check bool) "examined bounded" true (result.Glue.gluings_examined <= 101)

let suites =
  [
    ( "graph.lgraph",
      [
        Alcotest.test_case "basics" `Quick test_lgraph_basics;
        Alcotest.test_case "duplicate edges collapse" `Quick test_lgraph_duplicate_edge_collapses;
        Alcotest.test_case "bad edges rejected" `Quick test_lgraph_rejects_bad_edges;
        Alcotest.test_case "union" `Quick test_lgraph_union;
        Alcotest.test_case "disconnected" `Quick test_lgraph_disconnected;
      ] );
    ( "graph.canon",
      [
        Alcotest.test_case "iso invariance" `Quick test_canon_iso_invariance;
        Alcotest.test_case "label sensitivity" `Quick test_canon_distinguishes_labels;
        Alcotest.test_case "structure sensitivity" `Quick test_canon_distinguishes_structure;
        Alcotest.test_case "symmetric graphs" `Quick test_canon_symmetric_graph;
        Alcotest.test_case "canonical order" `Quick test_canonical_order_is_permutation;
        QCheck_alcotest.to_alcotest prop_canon_invariant;
        QCheck_alcotest.to_alcotest prop_canon_detects_edge_removal;
      ] );
    ( "graph.iso",
      [
        Alcotest.test_case "path in triangle" `Quick test_iso_embeds_path_in_triangle;
        Alcotest.test_case "label respect" `Quick test_iso_respects_labels;
        Alcotest.test_case "anchored" `Quick test_iso_anchored;
      ] );
    ( "graph.schema",
      [
        Alcotest.test_case "ten P-D paths (Sec 3.1)" `Quick test_schema_ten_paths_p_d;
        Alcotest.test_case "path length breakdown" `Quick test_schema_path_lengths;
        Alcotest.test_case "key reversal" `Quick test_schema_path_key_reversal;
        Alcotest.test_case "duplicate rel rejected" `Quick test_schema_duplicate_relationship_rejected;
        QCheck_alcotest.to_alcotest prop_path_key_matches_isomorphism;
      ] );
    ( "graph.data",
      [
        Alcotest.test_case "paper db counts" `Quick test_data_graph_counts;
        Alcotest.test_case "entities of type" `Quick test_data_graph_entities_of_type;
        Alcotest.test_case "PUD instances (Fig 6)" `Quick test_instance_paths_pud;
        Alcotest.test_case "anchored enumeration" `Quick test_instance_paths_between;
        Alcotest.test_case "paths stay simple" `Quick test_instance_paths_simple_only;
        Alcotest.test_case "compiled walker = enumeration" `Quick test_compiled_walker_matches_enumeration;
        QCheck_alcotest.to_alcotest prop_frozen_walk_matches_adjacency_dfs;
        Alcotest.test_case "add after freeze is walked" `Quick test_add_after_freeze_is_walked;
      ] );
    ( "graph.glue",
      [
        Alcotest.test_case "Fig 8 count" `Quick test_glue_fig8_two_topologies;
        Alcotest.test_case "sharing multiplies" `Quick test_glue_counts_sharing;
        Alcotest.test_case "budget respected" `Quick test_glue_respects_budget;
      ] );
  ]
