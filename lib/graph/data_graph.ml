module Dyn = Topo_util.Dyn

type t = {
  pool : Topo_util.Interner.t;
  node_type : (int, int) Hashtbl.t;  (* id -> interned "n:<ty>" *)
  by_type : (string, int Dyn.t) Hashtbl.t;
  adj : (int, (int * int) Dyn.t) Hashtbl.t;  (* id -> (interned "e:<rel>", other) *)
  edge_seen : (int * int * int, unit) Hashtbl.t;
}

let create pool =
  {
    pool;
    node_type = Hashtbl.create 4096;
    by_type = Hashtbl.create 16;
    adj = Hashtbl.create 4096;
    edge_seen = Hashtbl.create 4096;
  }

let node_label_of t ty = Topo_util.Interner.intern t.pool ("n:" ^ ty)

let edge_label_of t rel = Topo_util.Interner.intern t.pool ("e:" ^ rel)

let add_entity t ~ty ~id =
  let label = node_label_of t ty in
  match Hashtbl.find_opt t.node_type id with
  | Some existing ->
      if existing <> label then
        invalid_arg (Printf.sprintf "Data_graph.add_entity: id %d already has another type" id)
  | None ->
      Hashtbl.add t.node_type id label;
      let bucket =
        match Hashtbl.find_opt t.by_type ty with
        | Some b -> b
        | None ->
            let b = Dyn.create () in
            Hashtbl.add t.by_type ty b;
            b
      in
      Dyn.push bucket id;
      Hashtbl.add t.adj id (Dyn.create ())

let add_relationship t ~rel ~a ~b =
  if not (Hashtbl.mem t.node_type a) then
    invalid_arg (Printf.sprintf "Data_graph.add_relationship: unknown entity %d" a);
  if not (Hashtbl.mem t.node_type b) then
    invalid_arg (Printf.sprintf "Data_graph.add_relationship: unknown entity %d" b);
  let label = edge_label_of t rel in
  let key = if a < b then (a, b, label) else (b, a, label) in
  if not (Hashtbl.mem t.edge_seen key) then begin
    Hashtbl.add t.edge_seen key ();
    Dyn.push (Hashtbl.find t.adj a) (label, b);
    Dyn.push (Hashtbl.find t.adj b) (label, a)
  end

let node_count t = Hashtbl.length t.node_type

let edge_count t = Hashtbl.length t.edge_seen

let entities_of_type t ty =
  match Hashtbl.find_opt t.by_type ty with
  | None -> [||]
  | Some bucket ->
      let arr = Dyn.to_array bucket in
      Array.sort compare arr;
      arr

let node_type_label t id =
  match Hashtbl.find_opt t.node_type id with
  | Some l -> l
  | None -> raise Not_found

let interner t = t.pool

type compiled = { type_labels : int array; rel_labels : int array }

let compile t (p : Schema_graph.path) =
  {
    type_labels = Array.map (node_label_of t) p.Schema_graph.types;
    rel_labels = Array.map (edge_label_of t) p.Schema_graph.rels;
  }

let intern_path_labels t p = ignore (compile t p)

let is_palindromic (p : Schema_graph.path) = p = Schema_graph.reverse p

(* The one traversal: depth-first along [c] from [source], calling [f] with
   the node ids of each simple instance path.  [f] gets the walk's own
   buffer, valid only during the call.  A path holds at most l + 1 nodes,
   so the visited test is a scan of the positions already filled. *)
let walk t c ~source ~f =
  let l = Array.length c.rel_labels in
  match Hashtbl.find_opt t.node_type source with
  | Some label when label = c.type_labels.(0) ->
      let current = Array.make (l + 1) source in
      let rec on_path id i = i >= 0 && (current.(i) = id || on_path id (i - 1)) in
      let rec step pos =
        if pos = l then f current
        else begin
          let want_rel = c.rel_labels.(pos) and want_ty = c.type_labels.(pos + 1) in
          Dyn.iter
            (fun (rel, other) ->
              if rel = want_rel && (not (on_path other pos)) && Hashtbl.find t.node_type other = want_ty
              then begin
                current.(pos + 1) <- other;
                step (pos + 1)
              end)
            (Hashtbl.find t.adj current.(pos))
        end
      in
      step 0
  | Some _ | None -> ()

let iter_ends t c ~source ~f =
  let l = Array.length c.rel_labels in
  walk t c ~source ~f:(fun ids -> f ids.(l))

let iter_instance_paths t p ~f =
  let palindromic = is_palindromic p in
  let c = compile t p in
  let l = Schema_graph.path_length p in
  Array.iter
    (fun source ->
      walk t c ~source ~f:(fun ids ->
          (* A palindromic path is discovered from both endpoints; keep the
             traversal from the smaller id. *)
          if (not palindromic) || ids.(0) < ids.(l) then f (Array.copy ids)))
    (entities_of_type t p.Schema_graph.types.(0))

let iter_instance_paths_between t p ~a ~b ~f =
  let l = Schema_graph.path_length p in
  walk t (compile t p) ~source:a ~f:(fun ids -> if ids.(l) = b then f (Array.copy ids))

let iter_instance_paths_from t p ~source ~f = walk t (compile t p) ~source ~f:(fun ids -> f (Array.copy ids))

let path_subgraph t (p : Schema_graph.path) ~ids =
  let g = Lgraph.empty () in
  Array.iter (fun id -> Lgraph.add_node g ~id ~label:(Hashtbl.find t.node_type id)) ids;
  Array.iteri
    (fun i rel -> Lgraph.add_edge g ~u:ids.(i) ~v:ids.(i + 1) ~label:(edge_label_of t rel))
    p.Schema_graph.rels;
  g

let neighbors_by t ~id ~rel ~ty =
  match Hashtbl.find_opt t.adj id with
  | None -> []
  | Some nbrs ->
      let want_rel = edge_label_of t rel and want_ty = node_label_of t ty in
      Dyn.fold
        (fun acc (r, other) ->
          if r = want_rel && Hashtbl.find t.node_type other = want_ty then other :: acc else acc)
        [] nbrs
      |> List.sort compare
