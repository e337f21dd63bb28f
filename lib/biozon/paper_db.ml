open Topo_sql

let p78 = 78

let d215 = 215

let catalog () =
  let cat = Bschema.make_catalog () in
  let insert name values = Table.insert_values (Catalog.find cat name) values in
  let i n = Value.Int n and s v = Value.Str v in
  (* Proteins (Figure 3, first Definitions table). *)
  insert "Protein" [ i 32; s "Ubiquitin-conjugating enzyme UBCi" ];
  insert "Protein" [ i 78; s "Ubiquitin-conjugating enzyme variant MMS2" ];
  insert "Protein" [ i 34; s "vitamin D inducible protein [Homo sapiens]" ];
  insert "Protein" [ i 44; s "ubiquitin-conjugating enzyme E2B (homolog)" ];
  (* Unigene clusters (second Definitions table). *)
  insert "Unigene" [ i 103; s "ubiquitin-conjugating enzyme E2" ];
  insert "Unigene" [ i 150; s "hypothetical protein FLJ13855" ];
  insert "Unigene" [ i 188; s "ubiquitin-conjugating enzyme E2S" ];
  insert "Unigene" [ i 194; s "ubiquitin-conjugating enzyme E2S" ];
  (* DNAs (third table, all mRNA). *)
  insert "DNA" [ i 214; s "Oryctolagus cuniculus ubiquitin-conjugating enzyme UBCi mRNA"; s "mRNA" ];
  insert "DNA" [ i 215; s "Homo sapiens MMS2 (MMS2) mRNA, complete cds."; s "mRNA" ];
  insert "DNA" [ i 742; s "Human ubiquitin carrier protein (E2-EPF) mRNA, complete cds"; s "mRNA" ];
  (* Relationships with the edge ids of Figure 6. *)
  insert "Encodes" [ i 44; i 32; i 214 ];
  insert "Encodes" [ i 57; i 34; i 215 ];
  insert "Uni_encodes" [ i 25; i 103; i 78 ];
  insert "Uni_encodes" [ i 14; i 103; i 34 ];
  insert "Uni_encodes" [ i 31; i 150; i 78 ];
  insert "Uni_encodes" [ i 42; i 188; i 44 ];
  insert "Uni_encodes" [ i 11; i 194; i 44 ];
  insert "Uni_contains" [ i 62; i 103; i 215 ];
  insert "Uni_contains" [ i 93; i 150; i 215 ];
  insert "Uni_contains" [ i 121; i 188; i 742 ];
  insert "Uni_contains" [ i 37; i 194; i 742 ];
  cat
