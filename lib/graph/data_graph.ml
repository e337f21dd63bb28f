module Dyn = Topo_util.Dyn

(* Node numbers are assigned in registration order.  Object ids are mostly
   consecutive integers, so the id itself is a good bucket index. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash id = id land max_int
end)

(* The adjacency walks read: node [v]'s edges are [first.(v)] ..
   [first.(v + 1) - 1], in the order they were added.  Built in one pass
   over the builder's edge list; never mutated once published. *)
type frozen = {
  node_ids : int array;  (* node -> object id *)
  labels : int array;  (* node -> interned "n:<ty>" *)
  first : int array;  (* node -> first edge; length nodes + 1 *)
  edge_label : int array;  (* edge -> interned "e:<rel>" *)
  edge_dst : int array;  (* edge -> neighbour node *)
}

type t = {
  pool : Topo_util.Interner.t;
  index : int Ids.t;  (* object id -> node *)
  ids : int Dyn.t;  (* node -> object id *)
  node_labels : int Dyn.t;  (* node -> interned "n:<ty>" *)
  by_type : (string, int Dyn.t) Hashtbl.t;
  edges : int Dyn.t;  (* (node a, interned "e:<rel>", node b) per edge, flattened, in insertion order *)
  edge_seen : (int * int * int, unit) Hashtbl.t;
  frozen : frozen option Atomic.t;  (* None until frozen and after any add *)
}

let create pool =
  {
    pool;
    index = Ids.create 4096;
    ids = Dyn.create ();
    node_labels = Dyn.create ();
    by_type = Hashtbl.create 16;
    edges = Dyn.create ();
    edge_seen = Hashtbl.create 4096;
    frozen = Atomic.make None;
  }

let node_label_of t ty = Topo_util.Interner.intern t.pool ("n:" ^ ty)

let edge_label_of t rel = Topo_util.Interner.intern t.pool ("e:" ^ rel)

let add_entity t ~ty ~id =
  let label = node_label_of t ty in
  match Ids.find_opt t.index id with
  | Some node ->
      if Dyn.get t.node_labels node <> label then
        invalid_arg (Printf.sprintf "Data_graph.add_entity: id %d already has another type" id)
  | None ->
      Atomic.set t.frozen None;
      Ids.add t.index id (Dyn.length t.ids);
      Dyn.push t.ids id;
      Dyn.push t.node_labels label;
      let bucket =
        match Hashtbl.find_opt t.by_type ty with
        | Some b -> b
        | None ->
            let b = Dyn.create () in
            Hashtbl.add t.by_type ty b;
            b
      in
      Dyn.push bucket id

let node_of t id what =
  match Ids.find_opt t.index id with
  | Some node -> node
  | None -> invalid_arg (Printf.sprintf "Data_graph.%s: unknown entity %d" what id)

let add_relationship t ~rel ~a ~b =
  let na = node_of t a "add_relationship" and nb = node_of t b "add_relationship" in
  let label = edge_label_of t rel in
  let key = if a < b then (a, b, label) else (b, a, label) in
  if not (Hashtbl.mem t.edge_seen key) then begin
    Atomic.set t.frozen None;
    Hashtbl.add t.edge_seen key ();
    Dyn.push t.edges na;
    Dyn.push t.edges label;
    Dyn.push t.edges nb
  end

(* Each edge is listed at both ends, each end's list in insertion order:
   the order the per-node adjacency lists had when edges were pushed to
   [a] then [b]. *)
let freeze_graph t =
  let n = Dyn.length t.ids and m = Dyn.length t.edges / 3 in
  let first = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let a = Dyn.get t.edges (3 * e) and b = Dyn.get t.edges ((3 * e) + 2) in
    first.(a + 1) <- first.(a + 1) + 1;
    first.(b + 1) <- first.(b + 1) + 1
  done;
  for v = 1 to n do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  let fill = Array.sub first 0 n in
  let edge_label = Array.make (2 * m) 0 and edge_dst = Array.make (2 * m) 0 in
  let put v label other =
    edge_label.(fill.(v)) <- label;
    edge_dst.(fill.(v)) <- other;
    fill.(v) <- fill.(v) + 1
  in
  for e = 0 to m - 1 do
    let a = Dyn.get t.edges (3 * e)
    and label = Dyn.get t.edges ((3 * e) + 1)
    and b = Dyn.get t.edges ((3 * e) + 2) in
    put a label b;
    put b label a
  done;
  { node_ids = Dyn.to_array t.ids; labels = Dyn.to_array t.node_labels; first; edge_label; edge_dst }

(* Two domains that both find the graph unfrozen build equal arrays, so
   whichever publication wins is the same graph. *)
let graph t =
  match Atomic.get t.frozen with
  | Some g -> g
  | None ->
      let g = freeze_graph t in
      Atomic.set t.frozen (Some g);
      g

let freeze t = ignore (graph t)

let node_count t = Dyn.length t.ids

let edge_count t = Hashtbl.length t.edge_seen

let entities_of_type t ty =
  match Hashtbl.find_opt t.by_type ty with
  | None -> [||]
  | Some bucket ->
      let arr = Dyn.to_array bucket in
      Array.sort compare arr;
      arr

let node_type_label t id = Dyn.get t.node_labels (Ids.find t.index id)

let interner t = t.pool

type compiled = { type_labels : int array; rel_labels : int array }

let compile t (p : Schema_graph.path) =
  {
    type_labels = Array.map (node_label_of t) p.Schema_graph.types;
    rel_labels = Array.map (edge_label_of t) p.Schema_graph.rels;
  }

let intern_path_labels t p = ignore (compile t p)

let is_palindromic (p : Schema_graph.path) = p = Schema_graph.reverse p

(* The one traversal: depth-first along [c] from [source] over the frozen
   graph, calling [f] with the graph and the nodes of each simple instance
   path.  [f] gets the walk's own buffer, valid only during the call.  A
   path holds at most l + 1 nodes, so the visited test is a scan of the
   positions already filled. *)
let walk t c ~source ~f =
  match Ids.find_opt t.index source with
  | None -> ()
  | Some s ->
      let g = graph t in
      if g.labels.(s) = c.type_labels.(0) then begin
        let l = Array.length c.rel_labels in
        let current = Array.make (l + 1) s in
        let rec on_path v i = i >= 0 && (current.(i) = v || on_path v (i - 1)) in
        let rec step pos =
          if pos = l then f g current
          else begin
            let want_rel = c.rel_labels.(pos) and want_ty = c.type_labels.(pos + 1) in
            let u = current.(pos) in
            for e = g.first.(u) to g.first.(u + 1) - 1 do
              let v = g.edge_dst.(e) in
              if g.edge_label.(e) = want_rel && (not (on_path v pos)) && g.labels.(v) = want_ty then begin
                current.(pos + 1) <- v;
                step (pos + 1)
              end
            done
          end
        in
        step 0
      end

let ids_of g nodes = Array.map (fun v -> g.node_ids.(v)) nodes

let iter_ends t c ~source ~f =
  let l = Array.length c.rel_labels in
  walk t c ~source ~f:(fun g nodes -> f g.node_ids.(nodes.(l)))

let iter_instance_paths t p ~f =
  let palindromic = is_palindromic p in
  let c = compile t p in
  let l = Schema_graph.path_length p in
  Array.iter
    (fun source ->
      walk t c ~source ~f:(fun g nodes ->
          (* A palindromic path is discovered from both endpoints; keep the
             traversal from the smaller id. *)
          if (not palindromic) || g.node_ids.(nodes.(0)) < g.node_ids.(nodes.(l)) then f (ids_of g nodes)))
    (entities_of_type t p.Schema_graph.types.(0))

let iter_instance_paths_between t p ~a ~b ~f =
  let l = Schema_graph.path_length p in
  walk t (compile t p) ~source:a ~f:(fun g nodes -> if g.node_ids.(nodes.(l)) = b then f (ids_of g nodes))

let iter_instance_paths_from t p ~source ~f = walk t (compile t p) ~source ~f:(fun g nodes -> f (ids_of g nodes))

let neighbors_by t ~id ~rel ~ty =
  match Ids.find_opt t.index id with
  | None -> []
  | Some u ->
      let g = graph t in
      let want_rel = edge_label_of t rel and want_ty = node_label_of t ty in
      let acc = ref [] in
      for e = g.first.(u) to g.first.(u + 1) - 1 do
        let v = g.edge_dst.(e) in
        if g.edge_label.(e) = want_rel && g.labels.(v) = want_ty then acc := g.node_ids.(v) :: !acc
      done;
      List.sort compare !acc
