module Iso = Topo_graph.Iso

type diff = { common : int list; only_left : int list; only_right : int list }

let diff ~left ~right =
  let module IS = Set.Make (Int) in
  let l = IS.of_list left and r = IS.of_list right in
  {
    common = IS.elements (IS.inter l r);
    only_left = IS.elements (IS.diff l r);
    only_right = IS.elements (IS.diff r l);
  }

let subsumes registry ~outer ~inner =
  let o = Topology.find registry outer and i = Topology.find registry inner in
  i.Topology.n_nodes <= o.Topology.n_nodes
  && i.Topology.n_edges <= o.Topology.n_edges
  && Iso.embeds ~pattern:i.Topology.graph ~host:o.Topology.graph ()

let strictly_subsumes registry ~outer ~inner =
  outer <> inner && subsumes registry ~outer ~inner && not (subsumes registry ~outer:inner ~inner:outer)

let maximal registry tids =
  let tids = List.sort_uniq compare tids in
  List.filter
    (fun t -> not (List.exists (fun o -> strictly_subsumes registry ~outer:o ~inner:t) tids))
    tids
