let weak_segments =
  [
    [ "Protein"; "DNA"; "Protein" ];
    [ "Protein"; "Unigene"; "Protein" ];
    [ "Protein"; "Family"; "Protein" ];
    [ "Family"; "Pathway"; "Family" ];
    [ "DNA"; "Unigene"; "DNA" ];
  ]

let contains_segment types segment =
  let n = Array.length types and m = List.length segment in
  let seg = Array.of_list segment in
  let rec at i j = j >= m || (types.(i + j) = seg.(j) && at i (j + 1)) in
  let rec scan i = i + m <= n && (at i 0 || scan (i + 1)) in
  scan 0

(* The segments are palindromic in type (P-D-P etc.), so checking the
   forward direction suffices. *)
let weak_types types = List.exists (fun seg -> contains_segment types seg) weak_segments

let is_weak_path (p : Topo_graph.Schema_graph.path) =
  Topo_graph.Schema_graph.path_length p >= 4 && weak_types p.Topo_graph.Schema_graph.types

(* A class key is "T0~r0~T1~r1~...~Tl" (Schema_graph.signature of the
   normalized orientation); split it back into the type sequence. *)
let key_types key =
  let parts = String.split_on_char '~' key in
  let types = List.filteri (fun i _ -> i mod 2 = 0) parts in
  Array.of_list types

let is_weak_class_key key =
  let types = key_types key in
  Array.length types >= 5 (* length >= 4 has >= 5 nodes *) && weak_types types

let contains_weak_class (t : Topology.t) =
  List.exists is_weak_class_key t.Topology.decomposition

let is_weak_topology (t : Topology.t) =
  let long =
    List.filter (fun k -> Array.length (key_types k) >= 5) t.Topology.decomposition
  in
  long <> [] && List.for_all is_weak_class_key long && List.exists is_weak_class_key t.Topology.decomposition

let table4 =
  [
    ("DUP", "related but weaker than DP");
    ("PFP", "related/remotely related (homologous proteins)");
    ("PUP", "related/remotely related");
    ("PFPD", "related/remotely related");
    ("FWF", "weak relation (pathway context)");
    ("DUPU", "remotely related or completely unrelated");
    ("PUPU", "remotely related or completely unrelated");
    ("PDP", "likely to be unrelated (functionally)");
    ("FWFP", "likely to be completely unrelated");
  ]

let relationship_reliability = function
  | "encodes" -> 0.95
  | "uni_encodes" -> 0.9
  | "interacts_p" | "interacts_d" -> 0.85
  | "manifest" -> 0.8
  | "uni_contains" -> 0.7
  | "belongs" -> 0.6
  | "pathway_member" -> 0.5
  | _ -> 0.5

let count_weak_segments types =
  List.fold_left
    (fun acc seg ->
      let n = Array.length types and m = List.length seg in
      let sega = Array.of_list seg in
      let hits = ref 0 in
      for i = 0 to n - m do
        let rec matches j = j >= m || (types.(i + j) = sega.(j) && matches (j + 1)) in
        if matches 0 then incr hits
      done;
      acc + !hits)
    0 weak_segments

let path_reliability (p : Topo_graph.Schema_graph.path) =
  let base =
    Array.fold_left
      (fun acc rel -> acc *. relationship_reliability rel)
      1.0 p.Topo_graph.Schema_graph.rels
  in
  base *. Float.pow 0.5 (float_of_int (count_weak_segments p.Topo_graph.Schema_graph.types))

let class_key_reliability key =
  (* "T0~r0~T1~r1~...~Tl": types at even positions, relationships at odd. *)
  let parts = Array.of_list (String.split_on_char '~' key) in
  let n = Array.length parts in
  let types = Array.init ((n + 1) / 2) (fun i -> parts.(2 * i)) in
  let base = ref 1.0 in
  for i = 0 to (n / 2) - 1 do
    base := !base *. relationship_reliability parts.((2 * i) + 1)
  done;
  !base *. Float.pow 0.5 (float_of_int (count_weak_segments types))

let reliability_filter ~threshold p = path_reliability p >= threshold
