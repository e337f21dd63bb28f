open Topo_sql

type entity = { e_table : string; extra_cols : (string * Schema.ty) list }

type relationship = {
  r_table : string;
  rel_name : string;
  from_type : string;
  from_col : string;
  to_type : string;
  to_col : string;
}

let entities =
  [
    { e_table = "Protein"; extra_cols = [] };
    { e_table = "DNA"; extra_cols = [ ("type", Schema.TStr) ] };
    { e_table = "Unigene"; extra_cols = [] };
    { e_table = "Interaction"; extra_cols = [] };
    { e_table = "Family"; extra_cols = [] };
    { e_table = "Structure"; extra_cols = [] };
    { e_table = "Pathway"; extra_cols = [] };
  ]

let relationships =
  [
    {
      r_table = "Encodes";
      rel_name = "encodes";
      from_type = "Protein";
      from_col = "PID";
      to_type = "DNA";
      to_col = "DID";
    };
    {
      r_table = "Uni_encodes";
      rel_name = "uni_encodes";
      from_type = "Unigene";
      from_col = "UID";
      to_type = "Protein";
      to_col = "PID";
    };
    {
      r_table = "Uni_contains";
      rel_name = "uni_contains";
      from_type = "Unigene";
      from_col = "UID";
      to_type = "DNA";
      to_col = "DID";
    };
    {
      r_table = "Interacts_protein";
      rel_name = "interacts_p";
      from_type = "Protein";
      from_col = "PID";
      to_type = "Interaction";
      to_col = "IID";
    };
    {
      r_table = "Interacts_dna";
      rel_name = "interacts_d";
      from_type = "DNA";
      from_col = "DID";
      to_type = "Interaction";
      to_col = "IID";
    };
    {
      r_table = "Belongs";
      rel_name = "belongs";
      from_type = "Protein";
      from_col = "PID";
      to_type = "Family";
      to_col = "FID";
    };
    {
      r_table = "Manifest";
      rel_name = "manifest";
      from_type = "Protein";
      from_col = "PID";
      to_type = "Structure";
      to_col = "SID";
    };
    {
      r_table = "Pathway_member";
      rel_name = "pathway_member";
      from_type = "Family";
      from_col = "FID";
      to_type = "Pathway";
      to_col = "WID";
    };
  ]

let make_catalog () =
  let cat = Catalog.create () in
  List.iter
    (fun e ->
      let cols =
        { Schema.name = "ID"; ty = Schema.TInt }
        :: { Schema.name = "desc"; ty = Schema.TStr }
        :: List.map (fun (name, ty) -> { Schema.name; ty }) e.extra_cols
      in
      ignore (Catalog.create_table cat ~name:e.e_table ~schema:(Schema.make cols) ~primary_key:"ID" ()))
    entities;
  List.iter
    (fun r ->
      let cols =
        [
          { Schema.name = "ID"; ty = Schema.TInt };
          { Schema.name = r.from_col; ty = Schema.TInt };
          { Schema.name = r.to_col; ty = Schema.TInt };
        ]
      in
      ignore (Catalog.create_table cat ~name:r.r_table ~schema:(Schema.make cols) ~primary_key:"ID" ()))
    relationships;
  cat

let schema_graph () =
  let g = Topo_graph.Schema_graph.create () in
  List.iter (fun e -> Topo_graph.Schema_graph.add_entity g e.e_table) entities;
  List.iter
    (fun r ->
      Topo_graph.Schema_graph.add_relationship g ~name:r.rel_name ~from_:r.from_type ~to_:r.to_type)
    relationships;
  g

let data_graph catalog interner =
  let dg = Topo_graph.Data_graph.create interner in
  List.iter
    (fun e ->
      let table = Catalog.find catalog e.e_table in
      Table.iter (fun _ tuple -> Topo_graph.Data_graph.add_entity dg ~ty:e.e_table ~id:(Value.as_int tuple.(0))) table)
    entities;
  List.iter
    (fun r ->
      let table = Catalog.find catalog r.r_table in
      Table.iter
        (fun _ tuple ->
          Topo_graph.Data_graph.add_relationship dg ~rel:r.rel_name ~a:(Value.as_int tuple.(1))
            ~b:(Value.as_int tuple.(2)))
        table)
    relationships;
  Topo_graph.Data_graph.freeze dg;
  dg

let entity_of_id catalog id =
  List.find_map
    (fun e ->
      let table = Catalog.find catalog e.e_table in
      Option.map (fun tuple -> (e.e_table, tuple)) (Table.find_by_pk table (Value.Int id)))
    entities
