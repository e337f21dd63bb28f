open Topo_sql
module Sg = Topo_graph.Schema_graph
module Dg = Topo_graph.Data_graph

type t = {
  catalog : Catalog.t;
  interner : Topo_util.Interner.t;
  dg : Dg.t;
  schema : Sg.t;
  registry : Topology.registry;
  l : int;
  caps : Compute.caps;
  class_paths : (string, Sg.path) Hashtbl.t;
  stores : (string * string, Store.t) Hashtbl.t;
}

let store_for t ~t1 ~t2 =
  match Hashtbl.find_opt t.stores (t1, t2) with
  | Some s -> (s, true)
  | None -> (
      match Hashtbl.find_opt t.stores (t2, t1) with
      | Some s -> (s, false)
      | None -> raise Not_found)

let register_class_paths t ~t1 ~t2 =
  List.iter
    (fun p -> Hashtbl.replace t.class_paths (Sg.path_key p) p)
    (Sg.paths t.schema ~from_:t1 ~to_:t2 ~max_len:t.l)

let class_path t key =
  match Hashtbl.find_opt t.class_paths key with
  | Some p -> p
  | None -> raise Not_found

let satisfying_ids t (endpoint : Query.endpoint) =
  let table = Catalog.find t.catalog endpoint.Query.entity in
  let keep = Option.map (Row_filter.compile table) endpoint.Query.pred in
  let out = Topo_util.Dyn.create () in
  Table.iter
    (fun r tuple ->
      match keep with
      | Some f when not (f r tuple) -> ()
      | Some _ | None -> Topo_util.Dyn.push out (Value.as_int tuple.(0)))
    table;
  let arr = Topo_util.Dyn.to_array out in
  Array.sort Int.compare arr;
  arr

let mem_id ids id =
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let m = ids.(mid) in
    m = id || if id < m then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length ids)

exception Found

let class_exists_between t key ~a ~b =
  let p = class_path t key in
  let probe path =
    try
      Dg.iter_instance_paths_between t.dg path ~a ~b ~f:(fun _ -> raise Found);
      false
    with Found -> true
  in
  probe p
  ||
  (* Same endpoint types: the class may read reversed from [a]. *)
  let rev = Sg.reverse p in
  p.Sg.types.(0) = p.Sg.types.(Array.length p.Sg.types - 1) && rev <> p && probe rev
