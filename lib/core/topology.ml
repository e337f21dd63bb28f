module Lgraph = Topo_graph.Lgraph
module Canon = Topo_graph.Canon
module Smap = Map.Make (String)

type t = {
  tid : int;
  key : string;
  graph : Lgraph.t;
  n_nodes : int;
  n_edges : int;
  decomposition : string list;
  decompositions : string list list Atomic.t;
}

(* The whole registry state lives in ONE immutable snapshot behind an
   [Atomic.t].  The registry is written once: the offline build's commit,
   [Snapshot.load] and the single-domain n-query CLI register, always on
   the domain that owns the registry and before it serves.  Readers —
   [find]/[find_by_key]/[count]/[all] — do a single [Atomic.get] and then
   touch only immutable data; the release/acquire pair of [Atomic.set] and
   [Atomic.get] means no reader can see a TID without its fully-initialized
   topology, or a map/array mid-rehash. *)
type snapshot = {
  by_key : t Smap.t;
  by_tid : t array;  (* index = tid - 1; never mutated once published *)
}

type registry = snapshot Atomic.t

let create_registry () = Atomic.make { by_key = Smap.empty; by_tid = [||] }

let register ?key reg graph ~decomposition =
  let key = match key with Some key -> key | None -> Canon.key graph in
  let decomposition = List.sort_uniq compare decomposition in
  let snap = Atomic.get reg in
  match Smap.find_opt key snap.by_key with
  | Some t ->
      let ds = Atomic.get t.decompositions in
      if not (List.mem decomposition ds) then Atomic.set t.decompositions (ds @ [ decomposition ]);
      t
  | None ->
      let t =
        {
          tid = Array.length snap.by_tid + 1;
          key;
          graph = Lgraph.copy graph;
          n_nodes = Lgraph.node_count graph;
          n_edges = Lgraph.edge_count graph;
          decomposition;
          decompositions = Atomic.make [ decomposition ];
        }
      in
      Atomic.set reg { by_key = Smap.add key t snap.by_key; by_tid = Array.append snap.by_tid [| t |] };
      t

let find reg tid =
  let { by_tid; _ } = Atomic.get reg in
  if tid < 1 || tid > Array.length by_tid then raise Not_found;
  by_tid.(tid - 1)

let find_by_key reg key = Smap.find_opt key (Atomic.get reg).by_key

let count reg = Array.length (Atomic.get reg).by_tid

let all reg = Array.to_list (Atomic.get reg).by_tid

let is_single_path t =
  let g = t.graph in
  let nodes = Lgraph.nodes g in
  let degree_ok = List.for_all (fun id -> Lgraph.degree g id <= 2) nodes in
  let endpoints = List.filter (fun id -> Lgraph.degree g id = 1) nodes in
  degree_ok
  && List.length endpoints = 2
  && Lgraph.edge_count g = Lgraph.node_count g - 1
  && Lgraph.connected g

let strip_prefix s =
  (* labels are interned as "n:Type" / "e:rel" *)
  match String.index_opt s ':' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let describe interner t =
  let g = t.graph in
  let name label = strip_prefix (Topo_util.Interner.name interner label) in
  if is_single_path t then begin
    (* Walk from one degree-1 endpoint, choosing the direction whose label
       reading is smaller so the description is deterministic. *)
    let ends = List.filter (fun id -> Lgraph.degree g id = 1) (Lgraph.nodes g) in
    let walk start =
      let buf = Buffer.create 64 in
      let rec go prev current =
        Buffer.add_string buf (name (Lgraph.node_label g current));
        match List.filter (fun (_, other) -> Some other <> prev) (Lgraph.neighbors g current) with
        | [] -> ()
        | (el, next) :: _ ->
            Buffer.add_string buf (Printf.sprintf " -%s- " (name el));
            go (Some current) next
      in
      go None start;
      Buffer.contents buf
    in
    match ends with
    | [ a; b ] ->
        let wa = walk a and wb = walk b in
        if wa <= wb then wa else wb
    | ends ->
        invalid_arg
          (Printf.sprintf
             "Topology.describe: TID %d (key %s) classified as a simple path but has %d degree-1 \
              endpoint(s) instead of 2"
             t.tid t.key (List.length ends))
  end
  else begin
    (* Complex shape: canonical node numbering + edge list. *)
    let order = Canon.canonical_order g in
    let position = Hashtbl.create 8 in
    List.iteri (fun i id -> Hashtbl.add position id i) order;
    let node_strs =
      List.mapi (fun i id -> Printf.sprintf "%d:%s" i (name (Lgraph.node_label g id))) order
    in
    let edge_strs =
      List.map
        (fun { Lgraph.u; v; label } ->
          let pu = Hashtbl.find position u and pv = Hashtbl.find position v in
          let lo = min pu pv and hi = max pu pv in
          Printf.sprintf "%d-%s-%d" lo (name label) hi)
        (Lgraph.edges g)
      |> List.sort compare
    in
    Printf.sprintf "{%s | %s}" (String.concat ", " node_strs) (String.concat ", " edge_strs)
  end
