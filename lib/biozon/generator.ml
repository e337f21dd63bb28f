open Topo_sql
module Prng = Topo_util.Prng
module Zipf = Topo_util.Zipf

type params = {
  seed : int;
  n_proteins : int;
  n_unigenes : int;
  n_interactions : int;
  n_families : int;
  n_structures : int;
  n_pathways : int;
  p_operon_interaction : float;
  p_self_regulation : float;
  p_interaction_dna : float;
  zipf_s : float;
}

let default =
  {
    seed = 20070415;
    n_proteins = 1200;
    n_unigenes = 700;
    n_interactions = 420;
    n_families = 150;
    n_structures = 200;
    n_pathways = 60;
    p_operon_interaction = 0.35;
    p_self_regulation = 0.08;
    p_interaction_dna = 0.25;
    zipf_s = 1.1;
  }

let scale f p =
  if not (Float.is_finite f && f > 0.0) then
    invalid_arg (Printf.sprintf "Generator.scale: factor must be finite and > 0, got %g" f);
  let s n = max 1 (int_of_float (float_of_int n *. f)) in
  {
    p with
    n_proteins = s p.n_proteins;
    n_unigenes = s p.n_unigenes;
    n_interactions = s p.n_interactions;
    n_families = s p.n_families;
    n_structures = s p.n_structures;
    n_pathways = s p.n_pathways;
  }

type state = {
  cat : Catalog.t;
  prng : Prng.t;
  mutable next_oid : int;  (* entity object ids *)
  mutable next_eid : int;  (* relationship row ids *)
}

let fresh_oid st =
  let id = st.next_oid in
  st.next_oid <- id + 1;
  id

let add_edge st table from_id to_id =
  let id = st.next_eid in
  st.next_eid <- id + 1;
  Table.insert_values (Catalog.find st.cat table) [ Value.Int id; Value.Int from_id; Value.Int to_id ]

let add_entity st table values =
  Table.insert_values (Catalog.find st.cat table) values

let generate p =
  (* The interaction loop below needs two distinct proteins to make progress. *)
  if p.n_interactions > 0 && p.n_proteins < 2 then
    invalid_arg
      (Printf.sprintf "Generator.generate: %d interaction(s) need at least 2 proteins, got %d"
         p.n_interactions p.n_proteins);
  let st =
    { cat = Bschema.make_catalog (); prng = Prng.create p.seed; next_oid = 1000; next_eid = 1 }
  in
  let prng = st.prng in
  let i n = Value.Int n and s v = Value.Str v in

  (* --- families, structures, pathways -------------------------------- *)
  let families = Array.init p.n_families (fun _ -> fresh_oid st) in
  Array.iter
    (fun id -> add_entity st "Family" [ i id; s (Vocab.description prng ~keywords:[]) ])
    families;
  let structures = Array.init p.n_structures (fun _ -> fresh_oid st) in
  Array.iter
    (fun id -> add_entity st "Structure" [ i id; s (Vocab.description prng ~keywords:[]) ])
    structures;
  let pathways = Array.init p.n_pathways (fun _ -> fresh_oid st) in
  Array.iter
    (fun id -> add_entity st "Pathway" [ i id; s (Vocab.description prng ~keywords:[]) ])
    pathways;
  (* Families join 0-2 pathways. *)
  let pathway_zipf = Zipf.create ~n:(max 1 p.n_pathways) ~s:p.zipf_s in
  Array.iter
    (fun fid ->
      let n = Prng.int prng 3 in
      let seen = ref [] in
      for _ = 1 to n do
        let w = pathways.(Zipf.sample pathway_zipf prng - 1) in
        if not (List.mem w !seen) then begin
          seen := w :: !seen;
          add_edge st "Pathway_member" fid w
        end
      done)
    families;

  (* --- proteins and their DNAs ---------------------------------------- *)
  let proteins = Array.init p.n_proteins (fun _ -> fresh_oid st) in
  Array.iter
    (fun id -> add_entity st "Protein" [ i id; s (Vocab.description prng ~keywords:Vocab.protein_keywords) ])
    proteins;
  (* Families and structures are shared, but only mildly hub-like: a pure
     Zipf assignment makes the top family relate most protein pairs through
     P-F-P and floods the exception tables with multi-class pairs. *)
  let family_zipf = Zipf.create ~n:(max 1 p.n_families) ~s:p.zipf_s in
  let structure_zipf = Zipf.create ~n:(max 1 p.n_structures) ~s:p.zipf_s in
  let pick_mixed arr zipf =
    if Prng.chance prng 0.5 then arr.(Prng.int prng (Array.length arr))
    else arr.(Zipf.sample zipf prng - 1)
  in
  Array.iter
    (fun pid ->
      add_edge st "Belongs" pid (pick_mixed families family_zipf);
      if Prng.chance prng 0.3 then add_edge st "Manifest" pid (pick_mixed structures structure_zipf))
    proteins;

  (* DNAs are created on demand: dedicated mRNAs, operon DNAs encoding
     several proteins, and long genomic DNAs shared by many. *)
  let dnas = Topo_util.Dyn.create () in
  let new_dna ?ty () =
    let id = fresh_oid st in
    let ty = match ty with Some t -> t | None -> Vocab.dna_type prng in
    add_entity st "DNA" [ i id; s (Vocab.description prng ~keywords:[]); s ty ];
    Topo_util.Dyn.push dnas id;
    id
  in
  (* encodes edges, remembered for motif wiring: protein -> its DNAs. *)
  let encodes_of = Hashtbl.create p.n_proteins in
  let encode pid did =
    add_edge st "Encodes" pid did;
    Hashtbl.replace encodes_of pid (did :: Option.value ~default:[] (Hashtbl.find_opt encodes_of pid))
  in
  (* Long genomic DNAs: a Zipf-shared pool (chromosome-like). *)
  let n_genomic = max 1 (p.n_proteins / 60) in
  let genomic = Array.init n_genomic (fun _ -> new_dna ~ty:"genomic" ()) in
  let genomic_zipf = Zipf.create ~n:n_genomic ~s:p.zipf_s in

  let interactions_made = ref 0 in
  let new_interaction () =
    let id = fresh_oid st in
    add_entity st "Interaction" [ i id; s (Vocab.description prng ~keywords:Vocab.interaction_keywords) ];
    incr interactions_made;
    id
  in
  let interact_pp ?with_dna a b =
    let iid = new_interaction () in
    add_edge st "Interacts_protein" a iid;
    if a <> b then add_edge st "Interacts_protein" b iid;
    match with_dna with None -> () | Some did -> add_edge st "Interacts_dna" did iid
  in

  (* Operons: groups of 2-5 consecutive proteins share one DNA; consecutive
     members interact with probability p_operon_interaction — the Figure 16
     motif. *)
  let idx = ref 0 in
  let n = Array.length proteins in
  while !idx < n do
    let remaining = n - !idx in
    let roll = Prng.float prng in
    if roll < 0.12 && remaining >= 2 then begin
      (* operon of 2-5 proteins *)
      let size = min remaining (Prng.int_in_range prng ~lo:2 ~hi:5) in
      let did = new_dna ~ty:"mRNA" () in
      for j = !idx to !idx + size - 1 do
        encode proteins.(j) did
      done;
      for j = !idx to !idx + size - 2 do
        if Prng.chance prng p.p_operon_interaction then begin
          let with_dna = if Prng.chance prng 0.5 then Some did else None in
          interact_pp ?with_dna proteins.(j) proteins.(j + 1)
        end
      done;
      idx := !idx + size
    end
    else begin
      let pid = proteins.(!idx) in
      (* Dedicated mRNA with probability 0.85; also a genomic copy with
         probability 0.25; 5% of proteins have no DNA at all. *)
      if Prng.chance prng 0.95 then begin
        if Prng.chance prng 0.85 then encode pid (new_dna ~ty:"mRNA" ());
        if Prng.chance prng 0.25 then encode pid genomic.(Zipf.sample genomic_zipf prng - 1)
      end;
      incr idx
    end
  done;

  (* Self-regulation: a protein interacting with its own DNA (Figure 2,
     third topology). *)
  Array.iter
    (fun pid ->
      if Prng.chance prng p.p_self_regulation then
        match Hashtbl.find_opt encodes_of pid with
        | Some (did :: _) -> interact_pp ~with_dna:did pid pid
        | Some [] | None -> ())
    proteins;

  (* Remaining interactions: one uniform endpoint, one Zipf-popular (hub
     proteins exist but do not dominate every pair). *)
  let protein_zipf = Zipf.create ~n ~s:p.zipf_s in
  while !interactions_made < p.n_interactions do
    let a = proteins.(Prng.int prng n) in
    let b = proteins.(Zipf.sample protein_zipf prng - 1) in
    if a <> b then begin
      let with_dna =
        if Prng.chance prng p.p_interaction_dna && Topo_util.Dyn.length dnas > 0 then
          Some (Topo_util.Dyn.get dnas (Prng.int prng (Topo_util.Dyn.length dnas)))
        else None
      in
      interact_pp ?with_dna a b
    end
  done;

  (* --- Unigene clusters ------------------------------------------------ *)
  (* A cluster covers 1-3 homologous proteins (Zipf-popular) and contains
     the mRNAs of those proteins (overlap!) plus 0-3 EST DNAs of its own —
     the source of T3/T4-style interactions and of l=4 weak paths. *)
  for _ = 1 to p.n_unigenes do
    let uid = fresh_oid st in
    add_entity st "Unigene" [ i uid; s (Vocab.description prng ~keywords:[]) ];
    (* Mostly one (uniform) member; homolog clusters add Zipf-popular
       extras, so rich sharing exists without popular proteins joining
       every cluster. *)
    let n_members =
      let u = Prng.float prng in
      if u < 0.7 then 1 else if u < 0.9 then 2 else 3
    in
    let members = ref [ proteins.(Prng.int prng n) ] in
    for _ = 2 to n_members do
      let pid = proteins.(Zipf.sample protein_zipf prng - 1) in
      if not (List.mem pid !members) then members := pid :: !members
    done;
    List.iter (fun pid -> add_edge st "Uni_encodes" uid pid) !members;
    (* Contained DNAs: occasionally a member's own mRNA (creating the
       two-class U-D pairs behind topologies T3/T4), but clusters are
       mostly made of their own ESTs, as in Biozon. *)
    List.iter
      (fun pid ->
        match Hashtbl.find_opt encodes_of pid with
        | Some (did :: _) when Prng.chance prng 0.25 -> add_edge st "Uni_contains" uid did
        | Some _ | None -> ())
      !members;
    let n_ests = 1 + Prng.int prng 3 in
    for _ = 1 to n_ests do
      add_edge st "Uni_contains" uid (new_dna ~ty:"EST" ())
    done
  done;

  st.cat

let summary catalog =
  List.map (fun t -> (Table.name t, Table.row_count t)) (Catalog.tables catalog)
