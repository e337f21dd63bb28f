(** Instance retrieval (Section 6.2.4): given a topology in a query
    result, fetch the concrete entity pairs that adhere to it and, per
    pair, the witnessing instance subgraph. *)

(** [pairs_of_topology ctx store ~tid] probes the AllTops table's TID index
    for every (E1, E2) pair related by the topology. *)
val pairs_of_topology : Context.t -> Store.t -> tid:int -> (int * int) list

(** [qualifying_pairs ctx store query ~tid] restricts
    {!pairs_of_topology} to pairs satisfying the query's constraints
    (endpoints aligned to the store's orientation by the caller). *)
val qualifying_pairs :
  Context.t -> Store.t -> e1:Query.endpoint -> e2:Query.endpoint -> tid:int -> (int * int) list

(** [witness ctx store ~tid ~a ~b] re-derives one instance subgraph
    realizing the topology for the pair: a union of one instance path per
    class of one of the store's derivations of [tid]
    ({!Store.decompositions}) that canonicalizes to [tid].  Returns [None]
    when (a, b) is not actually related by the topology. *)
val witness : Context.t -> Store.t -> tid:int -> a:int -> b:int -> Topo_graph.Lgraph.t option
