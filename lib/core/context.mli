(** Shared query-engine context: the catalog plus the derived structures
    every method needs (instance graph, schema graph, topology registry,
    per-pair stores, and the class-key -> schema-path dictionary used by
    pruned-topology checks). *)

type t = {
  catalog : Topo_sql.Catalog.t;
  interner : Topo_util.Interner.t;
  dg : Topo_graph.Data_graph.t;
  schema : Topo_graph.Schema_graph.t;
  registry : Topology.registry;
  l : int;
  caps : Compute.caps;
  class_paths : (string, Topo_graph.Schema_graph.path) Hashtbl.t;
  stores : (string * string, Store.t) Hashtbl.t;
}

(** [store_for t ~t1 ~t2] finds the store for an entity-set pair in either
    orientation; returns the store and [true] when the query's (t1, t2)
    matches the store's orientation (else endpoints must be swapped).
    @raise Not_found when the pair was never precomputed. *)
val store_for : t -> t1:string -> t2:string -> Store.t * bool

(** [register_class_paths t ~t1 ~t2] records every schema path between the
    types under its class key (done once per built pair). *)
val register_class_paths : t -> t1:string -> t2:string -> unit

(** [class_path t key] resolves a class key back to a schema path.
    @raise Not_found for unknown keys. *)
val class_path : t -> string -> Topo_graph.Schema_graph.path

(** [satisfying_ids t endpoint] scans the endpoint's entity table and
    returns the ids satisfying its constraint, ascending. *)
val satisfying_ids : t -> Query.endpoint -> int array

(** [mem_id ids id] tests membership in an ascending id array such as
    {!satisfying_ids} returns — the one way to test an entity against an
    endpoint: build the id set once, then probe it. *)
val mem_id : int array -> int -> bool

(** [class_exists_between t key ~a ~b] is true when some instance path of
    the class connects [a] and [b] (handles same-type reversals). *)
val class_exists_between : t -> string -> a:int -> b:int -> bool
