(* Tests for the Biozon substrate: schema shape, the Figure 3 database, the
   vocabulary calibration and the synthetic generator. *)

open Topo_sql

let test_schema_table_counts () =
  (* "28 million objects (stored in seven tables) and 9.6 million binary
     relationships (stored in eight tables)". *)
  Alcotest.(check int) "seven entity tables" 7 (List.length Biozon.Bschema.entities);
  Alcotest.(check int) "eight relationship tables" 8 (List.length Biozon.Bschema.relationships)

let test_make_catalog_tables () =
  let cat = Biozon.Bschema.make_catalog () in
  Alcotest.(check int) "fifteen tables" 15 (List.length (Catalog.tables cat));
  let protein = Catalog.find cat "Protein" in
  Alcotest.(check bool) "desc column" true (Schema.mem (Table.schema protein) "desc");
  let dna = Catalog.find cat "DNA" in
  Alcotest.(check bool) "type column" true (Schema.mem (Table.schema dna) "type")

let test_relationship_named () =
  let named name =
    List.find_opt (fun r -> r.Biozon.Bschema.rel_name = name) Biozon.Bschema.relationships
  in
  match named "uni_contains" with
  | None -> Alcotest.fail "uni_contains missing"
  | Some r ->
      Alcotest.(check string) "endpoints" "Unigene" r.Biozon.Bschema.from_type;
      Alcotest.(check string) "endpoints" "DNA" r.Biozon.Bschema.to_type;
      Alcotest.(check bool) "unknown name absent" true (named "nope" = None)

let test_paper_db_contents () =
  let cat = Biozon.Paper_db.catalog () in
  Alcotest.(check int) "four proteins" 4 (Table.row_count (Catalog.find cat "Protein"));
  Alcotest.(check int) "three dnas" 3 (Table.row_count (Catalog.find cat "DNA"));
  Alcotest.(check int) "four unigenes" 4 (Table.row_count (Catalog.find cat "Unigene"));
  Alcotest.(check int) "two encodes" 2 (Table.row_count (Catalog.find cat "Encodes"));
  Alcotest.(check int) "five uni_encodes" 5 (Table.row_count (Catalog.find cat "Uni_encodes"));
  Alcotest.(check int) "four uni_contains" 4 (Table.row_count (Catalog.find cat "Uni_contains"))

let test_paper_db_queryable_by_sql () =
  let cat = Biozon.Paper_db.catalog () in
  let _, rows = Sql.query cat "SELECT P.ID FROM Protein P WHERE P.desc.ct('enzyme')" in
  let ids = List.map (fun t -> Value.as_int (Tuple.get t 0)) rows |> List.sort compare in
  (* Proteins 32, 44, 78 mention "enzyme"; 34 does not. *)
  Alcotest.(check (list int)) "enzyme proteins" [ 32; 44; 78 ] ids

let test_paper_db_entity_of_id () =
  let cat = Biozon.Paper_db.catalog () in
  (match Biozon.Bschema.entity_of_id cat 103 with
  | Some ("Unigene", _) -> ()
  | Some (other, _) -> Alcotest.failf "expected Unigene, got %s" other
  | None -> Alcotest.fail "unknown id");
  Alcotest.(check bool) "absent id" true (Biozon.Bschema.entity_of_id cat 999999 = None)

let test_vocab_keyword_selectivities () =
  (* Generate many protein descriptions and verify the calibrated keyword
     rates land near their targets. *)
  let prng = Topo_util.Prng.create 99 in
  let n = 4000 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to n do
    let d = Biozon.Vocab.description prng ~keywords:Biozon.Vocab.protein_keywords in
    List.iter
      (fun (kw, _) ->
        if Expr.keyword_matches ~keyword:kw ~text:d then
          Hashtbl.replace counts kw (1 + Option.value ~default:0 (Hashtbl.find_opt counts kw)))
      Biozon.Vocab.protein_keywords
  done;
  List.iter
    (fun (kw, p) ->
      let rate = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts kw)) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s rate %.3f near %.2f" kw rate p)
        true
        (Float.abs (rate -. p) < 0.03))
    Biozon.Vocab.protein_keywords

let test_vocab_keyword_for () =
  Alcotest.(check string) "protein selective" "kinase" (Biozon.Vocab.keyword_for `Protein `Selective);
  Alcotest.(check string) "interaction medium" "binding"
    (Biozon.Vocab.keyword_for `Interaction `Medium)

let test_generator_deterministic () =
  let p = { Biozon.Generator.default with Biozon.Generator.n_proteins = 150; n_unigenes = 80; n_interactions = 50 } in
  let a = Biozon.Generator.generate p and b = Biozon.Generator.generate p in
  List.iter2
    (fun (na, ca) (nb, cb) ->
      Alcotest.(check string) "table order" na nb;
      Alcotest.(check int) ("rows " ^ na) ca cb)
    (Biozon.Generator.summary a) (Biozon.Generator.summary b);
  (* Spot-check actual content equality on a table. *)
  let ta = Catalog.find a "Protein" and tb = Catalog.find b "Protein" in
  Table.iter (fun i tuple -> Alcotest.(check bool) "tuple equal" true (Tuple.equal tuple (Table.get tb i))) ta

let test_generator_ids_globally_unique () =
  let p = { Biozon.Generator.default with Biozon.Generator.n_proteins = 120 } in
  let cat = Biozon.Generator.generate p in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (e : Biozon.Bschema.entity) ->
      Table.iter
        (fun _ tuple ->
          let id = Value.as_int (Tuple.get tuple 0) in
          Alcotest.(check bool) "unique id" false (Hashtbl.mem seen id);
          Hashtbl.add seen id ())
        (Catalog.find cat e.Biozon.Bschema.e_table))
    Biozon.Bschema.entities

let test_generator_referential_integrity () =
  let p = { Biozon.Generator.default with Biozon.Generator.n_proteins = 120 } in
  let cat = Biozon.Generator.generate p in
  List.iter
    (fun (r : Biozon.Bschema.relationship) ->
      let from_table = Catalog.find cat r.Biozon.Bschema.from_type in
      let to_table = Catalog.find cat r.Biozon.Bschema.to_type in
      Table.iter
        (fun _ tuple ->
          let f = Tuple.get tuple 1 and t = Tuple.get tuple 2 in
          Alcotest.(check bool) "from exists" true (Table.find_by_pk from_table f <> None);
          Alcotest.(check bool) "to exists" true (Table.find_by_pk to_table t <> None))
        (Catalog.find cat r.Biozon.Bschema.r_table))
    Biozon.Bschema.relationships

let test_generator_scale () =
  let base = Biozon.Generator.default in
  let doubled = Biozon.Generator.scale 2.0 base in
  Alcotest.(check int) "proteins doubled" (2 * base.Biozon.Generator.n_proteins)
    doubled.Biozon.Generator.n_proteins;
  let tiny = Biozon.Generator.scale 0.00001 base in
  Alcotest.(check bool) "never zero" true (tiny.Biozon.Generator.n_proteins >= 1)

(* A factor that is not finite and > 0 used to clamp every population to
   one, and [generate]'s interaction loop then never found two distinct
   proteins. *)
let test_generator_rejects_degenerate_scale () =
  let base = Biozon.Generator.default in
  List.iter
    (fun f ->
      match Biozon.Generator.scale f base with
      | _ -> Alcotest.failf "scale %g accepted" f
      | exception Invalid_argument msg ->
          Alcotest.(check bool) (Printf.sprintf "scale %g names the factor" f) true
            (String.length msg > 0))
    [ 0.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity ];
  let one_protein = Biozon.Generator.scale 0.001 base in
  Alcotest.(check int) "0.001 leaves one protein" 1 one_protein.Biozon.Generator.n_proteins;
  (match Biozon.Generator.generate one_protein with
  | _ -> Alcotest.fail "interactions over one protein generated"
  | exception Invalid_argument _ -> ());
  let cat =
    Biozon.Generator.generate { one_protein with Biozon.Generator.n_interactions = 0 }
  in
  Alcotest.(check int) "no interactions asked, one protein generated" 1
    (Table.row_count (Catalog.find cat "Protein"))

let test_generator_selectivity_targets () =
  let cat = Biozon.Generator.generate { Biozon.Generator.default with Biozon.Generator.n_proteins = 2000 } in
  let protein = Catalog.find cat "Protein" in
  let matching kw =
    let n = ref 0 in
    Table.iter
      (fun _ tuple ->
        if Expr.keyword_matches ~keyword:kw ~text:(Value.as_string (Tuple.get tuple 1)) then incr n)
      protein;
    float_of_int !n /. float_of_int (Table.row_count protein)
  in
  Alcotest.(check bool) "kinase ~15%" true (Float.abs (matching "kinase" -. 0.15) < 0.04);
  Alcotest.(check bool) "enzyme ~50%" true (Float.abs (matching "enzyme" -. 0.50) < 0.04);
  Alcotest.(check bool) "protein ~85%" true (Float.abs (matching "protein" -. 0.85) < 0.04)

let test_generator_contains_fig16_motif () =
  (* At default scale the operon wiring must produce at least one pair of
     interacting proteins encoded by the same DNA. *)
  let cat = Biozon.Generator.generate Biozon.Generator.default in
  let interner = Topo_util.Interner.create () in
  let dg = Biozon.Bschema.data_graph cat interner in
  let found = ref false in
  let encodes = Catalog.find cat "Encodes" in
  let by_dna = Hashtbl.create 256 in
  Table.iter
    (fun _ tuple ->
      let pid = Value.as_int (Tuple.get tuple 1) and did = Value.as_int (Tuple.get tuple 2) in
      Hashtbl.replace by_dna did (pid :: Option.value ~default:[] (Hashtbl.find_opt by_dna did)))
    encodes;
  Hashtbl.iter
    (fun _ pids ->
      if not !found then
        List.iter
          (fun p1 ->
            List.iter
              (fun p2 ->
                if p1 < p2 then begin
                  (* Interacting = share an Interaction neighbor. *)
                  let i1 = Topo_graph.Data_graph.neighbors_by dg ~id:p1 ~rel:"interacts_p" ~ty:"Interaction" in
                  let i2 = Topo_graph.Data_graph.neighbors_by dg ~id:p2 ~rel:"interacts_p" ~ty:"Interaction" in
                  if List.exists (fun i -> List.mem i i2) i1 then found := true
                end)
              pids)
          pids)
    by_dna;
  Alcotest.(check bool) "Fig 16 motif present" true !found

let suites =
  [
    ( "biozon.schema",
      [
        Alcotest.test_case "table counts" `Quick test_schema_table_counts;
        Alcotest.test_case "catalog tables" `Quick test_make_catalog_tables;
        Alcotest.test_case "relationship lookup" `Quick test_relationship_named;
      ] );
    ( "biozon.paper_db",
      [
        Alcotest.test_case "contents" `Quick test_paper_db_contents;
        Alcotest.test_case "SQL queryable" `Quick test_paper_db_queryable_by_sql;
        Alcotest.test_case "entity_of_id" `Quick test_paper_db_entity_of_id;
      ] );
    ( "biozon.vocab",
      [
        Alcotest.test_case "keyword selectivities" `Slow test_vocab_keyword_selectivities;
        Alcotest.test_case "keyword_for" `Quick test_vocab_keyword_for;
      ] );
    ( "biozon.generator",
      [
        Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "globally unique ids" `Quick test_generator_ids_globally_unique;
        Alcotest.test_case "referential integrity" `Quick test_generator_referential_integrity;
        Alcotest.test_case "scaling" `Quick test_generator_scale;
        Alcotest.test_case "selectivity targets" `Slow test_generator_selectivity_targets;
        Alcotest.test_case "Fig 16 motif present" `Slow test_generator_contains_fig16_motif;
        Alcotest.test_case "degenerate scale rejected" `Quick
          test_generator_rejects_degenerate_scale;
      ] );
  ]
