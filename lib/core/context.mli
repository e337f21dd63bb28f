(** Shared query-engine context: the catalog plus the derived structures
    every method needs (instance graph, schema graph, the frozen topology
    registry, per-pair stores, and the class-key -> schema-path dictionary
    used by pruned-topology checks).  It holds no registry builder, so
    nothing registers a topology into a served engine. *)

(** A path class compiled for walking: {!Topo_graph.Data_graph.iter_ends}
    over each element reaches every instance path of the class from a
    source.  Two elements when both ends have the same type and the path
    is not its own reverse: the class then also reads reversed. *)
type walker = Topo_graph.Data_graph.compiled list

(** A registered class: its schema path and its two {!walker}s. *)
type class_entry

type t = {
  catalog : Topo_sql.Catalog.t;
  interner : Topo_util.Interner.t;
  dg : Topo_graph.Data_graph.t;
  schema : Topo_graph.Schema_graph.t;
  registry : Topology.registry;
  l : int;
  caps : Compute.caps;
  class_paths : (string, class_entry) Hashtbl.t;
  stores : (string * string, Store.t) Hashtbl.t;
}

(** [store_for t ~t1 ~t2] finds the store for an entity-set pair in either
    orientation: the store and [true] when the query's (t1, t2) matches
    the store's orientation (else endpoints must be swapped), or [None]
    when the pair was never precomputed. *)
val store_for : t -> t1:string -> t2:string -> (Store.t * bool) option

(** [pairs t] is every precomputed entity-set pair, in build orientation. *)
val pairs : t -> (string * string) list

(** [register_class_paths t ~t1 ~t2] records every schema path between the
    types under its class key, with both of its walkers compiled (see
    {!class_walker}).  Call it only in the single-threaded build and load
    phases: it interns labels and writes [class_paths], which queries only
    read. *)
val register_class_paths : t -> t1:string -> t2:string -> unit

(** [class_path t key] resolves a class key back to a schema path.
    @raise Not_found for unknown keys. *)
val class_path : t -> string -> Topo_graph.Schema_graph.path

(** [class_walker t ~reverse key] is the class's walker compiled at
    registration: from its E1 end, or with [~reverse:true] from its E2 end
    (the same pairs, each found from the other side).
    @raise Not_found for unknown keys. *)
val class_walker : t -> reverse:bool -> string -> walker

(** [satisfying_ids t endpoint] is the ids of the endpoint's entity table
    that satisfy its constraint, ascending.  It copies no rows: the ids
    are the table's id lane ({!Topo_sql.Table.int_lane}) read at the rows
    {!Topo_sql.Row_filter.rows} picks.  A constraint that is one
    single-word keyword reads only its posting's rows; otherwise one pass
    tests each row.  With no constraint the result is the lane itself.  The array may
    be shared with every other caller: treat it as read-only.
    @raise Invalid_argument when the table's id column is not all ints. *)
val satisfying_ids : t -> Query.endpoint -> int array

(** [mem_id ids id] tests membership in an ascending id array such as
    {!satisfying_ids} returns — the one way to test an entity against an
    endpoint: build the id set once, then probe it. *)
val mem_id : int array -> int -> bool

(** [iter_partners t walker ~source ~f] calls [f] at the far end of every
    instance path the walker reaches from [source].  [f] may raise to stop
    early. *)
val iter_partners : t -> walker -> source:int -> f:(int -> unit) -> unit

(** [connects t walker ~a ~b] is true when the walker reaches [b] from
    [a]. *)
val connects : t -> walker -> a:int -> b:int -> bool

(** [class_exists_between t key ~a ~b] is true when some instance path of
    the class connects [a] and [b] (handles same-type reversals).  It walks
    the schema path, not the compiled {!walker}s, so tests can use it as a
    reference for them. *)
val class_exists_between : t -> string -> a:int -> b:int -> bool
