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
  decompositions : string list list;
}

(* One writer owns a builder; an entry is replaced, never mutated, when
   a registration adds a derivation. *)
type builder = { tids : (string, int) Hashtbl.t; topos : t Topo_util.Dyn.t }

type registry = { by_key : t Smap.t; by_tid : t array (* index = tid - 1 *) }

let builder ?over () =
  let b = { tids = Hashtbl.create 256; topos = Topo_util.Dyn.create () } in
  let add t =
    Hashtbl.replace b.tids t.key t.tid;
    Topo_util.Dyn.push b.topos t
  in
  Option.iter (fun r -> Array.iter add r.by_tid) over;
  b

let register ?key b graph ~decomposition =
  let key = match key with Some key -> key | None -> Canon.key (Lazy.force graph) in
  let decomposition = List.sort_uniq compare decomposition in
  match Hashtbl.find_opt b.tids key with
  | Some tid ->
      let t = Topo_util.Dyn.get b.topos (tid - 1) in
      if List.mem decomposition t.decompositions then t
      else begin
        let t = { t with decompositions = t.decompositions @ [ decomposition ] } in
        Topo_util.Dyn.set b.topos (tid - 1) t;
        t
      end
  | None ->
      let graph = Lazy.force graph in
      let t =
        {
          tid = Topo_util.Dyn.length b.topos + 1;
          key;
          graph = Lgraph.copy graph;
          n_nodes = Lgraph.node_count graph;
          n_edges = Lgraph.edge_count graph;
          decomposition;
          decompositions = [ decomposition ];
        }
      in
      Hashtbl.replace b.tids key t.tid;
      Topo_util.Dyn.push b.topos t;
      t

let freeze b =
  let by_tid = Topo_util.Dyn.to_array b.topos in
  { by_tid; by_key = Array.fold_left (fun m t -> Smap.add t.key t m) Smap.empty by_tid }

let find reg tid =
  if tid < 1 || tid > Array.length reg.by_tid then raise Not_found;
  reg.by_tid.(tid - 1)

let find_by_key reg key = Smap.find_opt key reg.by_key

let count reg = Array.length reg.by_tid

let all reg = Array.to_list reg.by_tid

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
