open Topo_sql
module Sg = Topo_graph.Schema_graph
module Dg = Topo_graph.Data_graph

type walker = Dg.compiled list

(* A path class with both readings compiled: [forward] walks it from its
   E1 end, [reverse] from its E2 end.  Each reading also holds the other
   direction when both ends have the same type and the path is not its
   own reverse. *)
type class_entry = { path : Sg.path; forward : walker; reverse : walker }

type t = {
  catalog : Catalog.t;
  interner : Topo_util.Interner.t;
  dg : Dg.t;
  schema : Sg.t;
  registry : Topology.registry;
  l : int;
  caps : Compute.caps;
  class_paths : (string, class_entry) Hashtbl.t;
  stores : (string * string, Store.t) Hashtbl.t;
}

let store_for t ~t1 ~t2 =
  match Hashtbl.find_opt t.stores (t1, t2) with
  | Some s -> Some (s, true)
  | None -> Option.map (fun s -> (s, false)) (Hashtbl.find_opt t.stores (t2, t1))

let pairs t = Hashtbl.fold (fun pair _ acc -> pair :: acc) t.stores []

let register_class_paths t ~t1 ~t2 =
  List.iter
    (fun p ->
      let rev = Sg.reverse p in
      let fwd = Dg.compile t.dg p and bwd = Dg.compile t.dg rev in
      let entry =
        if p.Sg.types.(0) = p.Sg.types.(Array.length p.Sg.types - 1) && rev <> p then
          { path = p; forward = [ fwd; bwd ]; reverse = [ bwd; fwd ] }
        else { path = p; forward = [ fwd ]; reverse = [ bwd ] }
      in
      Hashtbl.replace t.class_paths (Sg.path_key p) entry)
    (Sg.paths t.schema ~from_:t1 ~to_:t2 ~max_len:t.l)

let class_path t key = (Hashtbl.find t.class_paths key).path

let class_walker t ~reverse key =
  let e = Hashtbl.find t.class_paths key in
  if reverse then e.reverse else e.forward

let satisfying_ids t (endpoint : Query.endpoint) =
  let table = Catalog.find t.catalog endpoint.Query.entity in
  let lane =
    match Table.int_lane table 0 with
    | Some lane -> lane
    | None ->
        invalid_arg
          (Printf.sprintf "Context.satisfying_ids: %s has an id that is not an int" (Table.name table))
  in
  let ids =
    match endpoint.Query.pred with
    | None -> lane
    | Some pred -> Array.map (fun r -> lane.(r)) (Row_filter.rows table pred)
  in
  let rec ascending i = i >= Array.length ids || (ids.(i - 1) <= ids.(i) && ascending (i + 1)) in
  if ascending 1 then ids
  else begin
    let sorted = Array.copy ids in
    Array.sort Int.compare sorted;
    sorted
  end

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

let iter_partners t walker ~source ~f = List.iter (fun c -> Dg.iter_ends t.dg c ~source ~f) walker

let connects t walker ~a ~b =
  try
    iter_partners t walker ~source:a ~f:(fun b' -> if b' = b then raise Found);
    false
  with Found -> true

(* Walks the schema path itself, not the compiled walkers, so it stays an
   independent reference for them. *)
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
