module Dyn = Topo_util.Dyn
module Pool = Topo_util.Pool
module Sg = Topo_graph.Schema_graph
module Dg = Topo_graph.Data_graph
module Lgraph = Topo_graph.Lgraph
module Canon = Topo_graph.Canon

type caps = { max_reps_per_class : int; max_combos_per_pair : int; max_paths_per_class : int }

let default_caps = { max_reps_per_class = 8; max_combos_per_pair = 256; max_paths_per_class = 2_000_000 }

type stats = {
  schema_paths : int;
  instance_paths : int;
  pairs : int;
  unions : int;
  capped_pairs : int;
}

type pair_row = { a : int; b : int; tids : int list; class_keys : string list }

(* A representative of a path equivalence class: the schema path plus the
   concrete node ids realizing it. *)
type rep = Sg.path * int array

(* Normalize a representative's orientation (same-type pairs can discover
   one instance from either end) so sorting is stable across enumeration
   directions. *)
let normalize_rep path ids : rep =
  let n = Array.length ids in
  let rev_ids = Array.init n (fun i -> ids.(n - 1 - i)) in
  if compare rev_ids ids < 0 then (Sg.reverse path, rev_ids) else (path, ids)

let compare_reps ((_, ids_a) : rep) ((_, ids_b) : rep) = compare ids_a ids_b

let union_of_representatives dg reps =
  let g = Lgraph.empty () in
  List.iter
    (fun ((p : Sg.path), ids) ->
      Array.iter
        (fun id -> if not (Lgraph.mem_node g id) then Lgraph.add_node g ~id ~label:(Dg.node_type_label dg id))
        ids;
      Array.iteri
        (fun i rel ->
          let label = Topo_util.Interner.intern (Dg.interner dg) ("e:" ^ rel) in
          Lgraph.add_edge g ~u:ids.(i) ~v:ids.(i + 1) ~label)
        p.Sg.rels)
    reps;
  g

(* ------------------------------------------------------------------ *)
(* Staged sweep pipeline.

   The offline sweep runs in four phases so the heavy work parallelizes
   over a domain pool while TID assignment stays serial and deterministic:

     enumerate_path   one task per schema path: enumerate its instance
                      paths and bucket representatives by (first, last)
                      entity pair.  Reads the data graph only (labels must
                      be pre-interned via Dg.intern_path_labels).
     merge_shards     coordinator: combine the per-path shards into one
                      pending record per entity pair, classes in schema
                      path order, pairs sorted by (a, b).
     unions_of_pairs  one task per chunk of pairs, one memo per chunk:
                      sort/truncate representatives, run the Definition 2
                      cartesian product of unions, canonicalize once per
                      glue signature, dedup — producing canonical keys and
                      representative graphs but no TIDs.
     commit           coordinator: walk pairs in (a, b) order and register
                      every topology under the key already computed,
                      assigning TIDs at merge time only.
                      jobs = n therefore yields bit-identical rows,
                      registry contents and TIDs to jobs = 1. *)

exception Path_budget

type shard = {
  sh_key : string;  (* the path's equivalence class key *)
  sh_reps : (int * int, rep Dyn.t) Hashtbl.t;
  sh_instances : int;
}

let enumerate_path dg caps ~same_type (p : Sg.path) =
  let reps : (int * int, rep Dyn.t) Hashtbl.t = Hashtbl.create 1024 in
  let count = ref 0 in
  let handle ids =
    incr count;
    if !count > caps.max_paths_per_class then raise Path_budget;
    let a0 = ids.(0) and b0 = ids.(Array.length ids - 1) in
    let pk = if same_type && a0 > b0 then (b0, a0) else (a0, b0) in
    let dyn =
      match Hashtbl.find_opt reps pk with
      | Some d -> d
      | None ->
          let d = Dyn.create () in
          Hashtbl.add reps pk d;
          d
    in
    Dyn.push dyn (normalize_rep p ids)
  in
  (try Dg.iter_instance_paths dg p ~f:handle with Path_budget -> ());
  { sh_key = Sg.path_key p; sh_reps = reps; sh_instances = !count }

type pending = {
  pd_a : int;
  pd_b : int;
  pd_classes : (string * rep array) Dyn.t;  (* schema path order *)
}

let merge_shards shards =
  let merged : (int * int, (string * rep array) Dyn.t) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun sh ->
      (* Sort each shard's pairs so the merge never depends on hash-table
         iteration order. *)
      let pairs = Hashtbl.fold (fun pk d acc -> (pk, d) :: acc) sh.sh_reps [] in
      let pairs = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) pairs in
      List.iter
        (fun (pk, d) ->
          let classes =
            match Hashtbl.find_opt merged pk with
            | Some c -> c
            | None ->
                let c = Dyn.create () in
                Hashtbl.add merged pk c;
                c
          in
          Dyn.push classes (sh.sh_key, Dyn.to_array d))
        pairs)
    shards;
  let all = Hashtbl.fold (fun (a, b) classes acc -> { pd_a = a; pd_b = b; pd_classes = classes } :: acc) merged [] in
  let arr = Array.of_list all in
  Array.sort (fun p1 p2 -> compare (p1.pd_a, p1.pd_b) (p2.pd_a, p2.pd_b)) arr;
  arr

type proto = {
  pr_a : int;
  pr_b : int;
  pr_topos : (string * Lgraph.t Lazy.t) list;
      (* distinct canonical keys, discovery order, each with the first union
         that produced it; [commit] forces a graph only for a class new to
         the registry *)
  pr_class_keys : string list;  (* sorted *)
  pr_combos : int;
  pr_capped : bool;
}

let proto_combos pr = pr.pr_combos

let proto_capped pr = pr.pr_capped

let proto_topos pr = List.map (fun (key, graph) -> (key, Lazy.force graph)) pr.pr_topos

let pending_classes pd = List.map (fun (key, arr) -> (key, Array.copy arr)) (Dyn.to_list pd.pd_classes)

(* Canonical keys by glue signature (Section 3.1: a union's shape is fixed
   by which classes it uses and how they are glued).  The signature lists,
   for each chosen representative in class order, its schema path in the
   orientation [normalize_rep] stored, then its node ids renumbered by
   first occurrence across the whole union.  Node labels follow the path's
   types, edge labels its relationships, and the renumbering says which
   positions share an entity, so the signature fixes the union graph up to
   isomorphism and the canonical key is a function of it.

   A signature is an int array: per representative, the memo's id for its
   path, then its renumbered ids (the path fixes how many).  The keys embed
   interned label ids, so a memo is only valid for the interner of the
   build that created it: make one per union task chunk, never longer. *)
module Signatures = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  let hash (a : t) = Array.fold_left (fun h x -> (h * 65599) + x) (Array.length a) a land max_int
end)

type memo = { path_id : Sg.path -> int; key_of : int array -> Lgraph.t Lazy.t -> string }

let memo () =
  let paths : (Sg.path, int) Hashtbl.t = Hashtbl.create 64 in
  let keys = Signatures.create 256 in
  let path_id p =
    match Hashtbl.find_opt paths p with
    | Some id -> id
    | None ->
        let id = Hashtbl.length paths in
        Hashtbl.add paths p id;
        id
  in
  let key_of signature graph =
    match Signatures.find_opt keys signature with
    | Some key -> key
    | None ->
        let key = Canon.key (Lazy.force graph) in
        Signatures.add keys signature key;
        key
  in
  { path_id; key_of }

(* Representatives were collected unbounded and are truncated here against
   a deterministic (sorted) order, so every code path — the offline sweep,
   anchored recomputation, witness retrieval — selects the same sample and
   the methods stay mutually consistent even on capped pairs. *)
let truncate_classes caps classes =
  let capped = ref false in
  let classes =
    List.map
      (fun (key, arr) ->
        Array.sort compare_reps arr;
        if Array.length arr > caps.max_reps_per_class then begin
          capped := true;
          (key, Array.sub arr 0 caps.max_reps_per_class)
        end
        else (key, arr))
      classes
    |> List.sort (fun ((ka : string), _) (kb, _) -> compare ka kb)
  in
  (classes, !capped)

let unions_of_pair dg caps memo pd =
  let classes, capped = truncate_classes caps (Dyn.to_list pd.pd_classes) in
  let capped = ref capped in
  let class_keys = List.map fst classes in
  let rep_arrays = List.map snd classes in
  let n_classes = List.length rep_arrays in
  let counts = Array.of_list (List.map Array.length rep_arrays) in
  let reps = Array.of_list rep_arrays in
  let indices = Array.make n_classes 0 in
  (* Each representative as its path id and its node ids renumbered densely
     within the pair, so a union's signature costs O(its length): [stamp]
     marks the ids the current union has numbered, [number] their numbers. *)
  let dense = Hashtbl.create 64 in
  let dense_id id =
    match Hashtbl.find_opt dense id with
    | Some i -> i
    | None ->
        let i = Hashtbl.length dense in
        Hashtbl.add dense id i;
        i
  in
  let glue =
    Array.map (Array.map (fun ((p, ids) : rep) -> (memo.path_id p, Array.map dense_id ids))) reps
  in
  let stamp = Array.make (Hashtbl.length dense) 0 in
  let number = Array.make (Hashtbl.length dense) 0 in
  (* A class's representatives share one path length. *)
  let length = Array.fold_left (fun n g -> n + 1 + Array.length (snd g.(0))) 0 glue in
  (* Definition 2: union one representative per class, over the (capped)
     cartesian product of representatives; canonicalize and dedup.  A
     union graph is built only on a memo miss, or by [commit] for the
     first union of a class new to the registry. *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let topos = ref [] in
  let combos = ref 0 in
  let continue = ref true in
  while !continue do
    incr combos;
    let signature = Array.make length 0 in
    let pos = ref 0 and next = ref 0 in
    Array.iteri
      (fun c g ->
        let path_id, ids = g.(indices.(c)) in
        signature.(!pos) <- path_id;
        incr pos;
        Array.iter
          (fun i ->
            if stamp.(i) <> !combos then begin
              stamp.(i) <- !combos;
              number.(i) <- !next;
              incr next
            end;
            signature.(!pos) <- number.(i);
            incr pos)
          ids)
      glue;
    let chosen = List.init n_classes (fun c -> reps.(c).(indices.(c))) in
    let graph = lazy (union_of_representatives dg chosen) in
    let key = memo.key_of signature graph in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      topos := (key, graph) :: !topos
    end;
    (* Odometer increment. *)
    let rec bump c =
      if c < 0 then continue := false
      else begin
        indices.(c) <- indices.(c) + 1;
        if indices.(c) >= counts.(c) then begin
          indices.(c) <- 0;
          bump (c - 1)
        end
      end
    in
    bump (n_classes - 1);
    if !combos >= caps.max_combos_per_pair && !continue then begin
      capped := true;
      continue := false
    end
  done;
  {
    pr_a = pd.pd_a;
    pr_b = pd.pd_b;
    pr_topos = List.rev !topos;
    pr_class_keys = class_keys;
    pr_combos = !combos;
    pr_capped = !capped;
  }

(* Pairs are numerous and individually small, so they are claimed in
   chunks; each chunk makes its own memo, so no memo is shared between
   domains or outlives the build.  A one-job pool takes every pair in one
   chunk, so the whole build shares one memo. *)
let unions_of_pairs pool dg caps pendings =
  let n = Array.length pendings in
  let jobs = Pool.jobs pool in
  let chunk = if jobs = 1 then max 1 n else max 1 (n / (jobs * 8)) in
  let chunks =
    Array.init ((n + chunk - 1) / chunk) (fun i ->
        Array.sub pendings (i * chunk) (min chunk (n - (i * chunk))))
  in
  Pool.parallel_map pool chunks ~f:(fun chunk ->
      let memo = memo () in
      Array.map (unions_of_pair dg caps memo) chunk)
  |> Array.to_list |> Array.concat

let commit builder protos =
  Array.to_list protos
  |> List.map (fun pr ->
         let tids =
           List.map
             (fun (key, graph) ->
               (* A registered class keeps its first representative, so only
                  a class new to the builder forces this pair's union graph. *)
               (Topology.register ~key builder graph ~decomposition:pr.pr_class_keys).Topology.tid)
             pr.pr_topos
         in
         { a = pr.pr_a; b = pr.pr_b; tids = List.sort compare tids; class_keys = pr.pr_class_keys })

let sweep_stats ~schema_paths ~shards ~protos ~rows =
  {
    schema_paths;
    instance_paths = List.fold_left (fun acc sh -> acc + sh.sh_instances) 0 shards;
    pairs = List.length rows;
    unions = Array.fold_left (fun acc pr -> acc + pr.pr_combos) 0 protos;
    capped_pairs = Array.fold_left (fun acc pr -> acc + if pr.pr_capped then 1 else 0) 0 protos;
  }

let schema_paths_between schema ~t1 ~t2 ~l = Sg.paths schema ~from_:t1 ~to_:t2 ~max_len:l

(* Anchored enumeration: every instance of [paths] between [a] and [b],
   bucketed by path class in discovery order, orientation-normalized like
   [enumerate_path].  When both endpoints have one type, instances of a
   class may also read as the reversed path from [a]. *)
let anchored_classes dg ~paths ~same_type ~a ~b =
  let by_key : (string, rep Dyn.t) Hashtbl.t = Hashtbl.create 16 in
  let classes = Dyn.create () in
  let push key path ids =
    let dyn =
      match Hashtbl.find_opt by_key key with
      | Some d -> d
      | None ->
          let d = Dyn.create () in
          Hashtbl.add by_key key d;
          Dyn.push classes (key, d);
          d
    in
    Dyn.push dyn (normalize_rep path ids)
  in
  List.iter
    (fun (p : Sg.path) ->
      let key = Sg.path_key p in
      Dg.iter_instance_paths_between dg p ~a ~b ~f:(fun ids -> push key p ids);
      if same_type then begin
        let rev = Sg.reverse p in
        if rev <> p then Dg.iter_instance_paths_between dg rev ~a ~b ~f:(fun ids -> push key rev ids)
      end)
    paths;
  Dyn.map (fun (key, d) -> (key, Dyn.to_array d)) classes

let pair_class_reps dg ~paths ~same_type ~a ~b ~caps =
  fst (truncate_classes caps (Dyn.to_list (anchored_classes dg ~paths ~same_type ~a ~b)))

let pair_topologies dg ~paths ~same_type ~a ~b ~caps =
  let classes = anchored_classes dg ~paths ~same_type ~a ~b in
  if Dyn.is_empty classes then ([], [])
  else begin
    let pr = unions_of_pair dg caps (memo ()) { pd_a = a; pd_b = b; pd_classes = classes } in
    (List.map fst pr.pr_topos, pr.pr_class_keys)
  end
