(** The instance graph: the database's entities and relationships as one
    labeled graph (Section 2.1, Figure 6), with schema-path-directed
    enumeration of simple instance paths.

    Node ids are the entities' globally unique object ids ("the IDs of
    different biological objects are not overlapping", Section 4.3).  Type
    labels are interned as ["n:<entity>"] and edge labels as ["e:<rel>"],
    the same convention {!Schema_graph.path_to_lgraph} uses, so instance
    subgraphs and schema-level graphs canonicalize into the same key
    space.

    Walks read a frozen copy of the adjacency: a dense node numbering,
    one type label per node, and per node a range of edge label and
    neighbour arrays (compressed sparse rows), each node's edges in the
    order they were added.  A step is a few array reads.  {!freeze}
    builds that copy; any [add_*] afterwards drops it, and the next walk
    builds it again. *)

type t

(** [create interner] is an empty instance graph using the shared intern
    pool. *)
val create : Topo_util.Interner.t -> t

(** [add_entity t ~ty ~id] registers entity [id] of entity type [ty].
    @raise Invalid_argument if [id] is already present with another type. *)
val add_entity : t -> ty:string -> id:int -> unit

(** [add_relationship t ~rel ~a ~b] links two registered entities.
    Duplicate (a, b, rel) triples collapse. *)
val add_relationship : t -> rel:string -> a:int -> b:int -> unit

(** [freeze t] builds the adjacency walks read, if an [add_*] since the
    last freeze (or none yet) left it stale.  Call it once the graph is
    loaded and before walking it from several domains: a walk that finds
    the graph stale freezes it itself, and two domains doing so at once
    would each build the same arrays. *)
val freeze : t -> unit

(** [node_count t] / [edge_count t]. *)
val node_count : t -> int

val edge_count : t -> int

(** [entities_of_type t ty] is the ascending id array of a type (empty for
    unknown types). *)
val entities_of_type : t -> string -> int array

(** [node_type_label t id] is the interned ["n:<ty>"] label.
    @raise Not_found for unregistered ids. *)
val node_type_label : t -> int -> int

(** [interner t]. *)
val interner : t -> Topo_util.Interner.t

(** [intern_path_labels t path] interns every ["n:<ty>"] / ["e:<rel>"]
    label the path mentions.  Call it before fanning path enumeration out
    to other domains: afterwards enumeration over [path] only {e reads}
    the shared intern pool, so concurrent traversals are safe. *)
val intern_path_labels : t -> Schema_graph.path -> unit

(** A schema path resolved to the graph's interned labels.  Compile a
    path once and walk it from many sources: a walk then compares integers
    only. *)
type compiled

(** [compile t path] interns the path's labels (see
    {!intern_path_labels} for the concurrency contract). *)
val compile : t -> Schema_graph.path -> compiled

(** [iter_ends t c ~source ~f] calls [f] with the last node id of every
    simple instance path of [c] that starts at [source], in the order
    {!iter_instance_paths_from} yields those paths, without copying them.
    [f] may raise to stop early. *)
val iter_ends : t -> compiled -> source:int -> f:(int -> unit) -> unit

(** [iter_instance_paths t path ~f] calls [f] with the node-id array of
    every simple instance path realizing the schema [path] (oriented as
    given), each instance exactly once: for a palindromic label sequence
    the traversal from the higher-id endpoint is suppressed.  [f] may raise
    to stop early. *)
val iter_instance_paths : t -> Schema_graph.path -> f:(int array -> unit) -> unit

(** [iter_instance_paths_between t path ~a ~b ~f] like
    {!iter_instance_paths} but anchored: only paths starting at [a] and
    ending at [b] (in the path's orientation). *)
val iter_instance_paths_between : t -> Schema_graph.path -> a:int -> b:int -> f:(int array -> unit) -> unit

(** [iter_instance_paths_from t path ~source ~f] anchored at the start
    only: every instance path of [path] beginning at [source]. *)
val iter_instance_paths_from : t -> Schema_graph.path -> source:int -> f:(int array -> unit) -> unit

(** [neighbors_by t ~id ~rel ~ty] is the neighbor ids of [id] along edges
    labeled [rel] whose endpoint has type [ty]; ascending. *)
val neighbors_by : t -> id:int -> rel:string -> ty:string -> int list
