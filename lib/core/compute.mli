(** The Topology Computation module (Section 4.1) and the per-pair
    semantics of Definitions 1-3.

    [pair_topologies] computes l-Top(a, b) for one entity pair, without
    touching the registry — the building block behind the SQL method and
    tests of the formal definitions.  The staged sweep below runs the offline phase for whole
    entity-set pairs ({!Engine.build} schedules it): enumerate every schema
    path of length <= l, enumerate its instances (a join chain per path, as
    Section 4.1 describes), group by (first, last) entity, and union one
    representative per path equivalence class over the cartesian product of
    representatives.

    The sweep is staged so it can run on a {!Topo_util.Pool} of domains:
    {!enumerate_path} (one task per schema path) and {!unions_of_pairs}
    (one task per chunk of entity pairs) touch only the read-only data
    graph and private accumulators, while {!merge_shards} and {!commit} run
    on the coordinator.  TIDs are assigned only at {!commit}, walking pairs in
    (a, b) order, so a parallel sweep produces bit-identical rows and
    registry contents to a serial one.

    Caps bound the weak-relationship blowups the paper reports (up to 5000
    instances of one path class per pair, >1 day for l = 4): at most
    [max_reps_per_class] representatives per class enter the product and at
    most [max_combos_per_pair] unions are formed per pair (combinations are
    truncated deterministically).  Defaults are high enough that nothing is
    capped at the default generator scale; the benchmarks print the
    cap-hit counters. *)

type caps = {
  max_reps_per_class : int;  (** representatives kept per (pair, class) *)
  max_combos_per_pair : int;  (** unions formed per pair *)
  max_paths_per_class : int;  (** instance paths enumerated per schema path *)
}

val default_caps : caps

type stats = {
  schema_paths : int;  (** schema paths of length <= l between the types *)
  instance_paths : int;  (** instance paths enumerated *)
  pairs : int;  (** connected (a, b) pairs found *)
  unions : int;  (** union graphs canonicalized *)
  capped_pairs : int;  (** pairs where some cap truncated the product *)
}

(** Result row for one connected pair.  {!Store.build} consumes the
    rows and nothing keeps them: AllTops holds each row's (a, b, TIDs),
    and {!commit} registered its class keys as a decomposition of each of
    its topologies. *)
type pair_row = {
  a : int;
  b : int;
  tids : int list;  (** l-Top(a,b), ascending TIDs *)
  class_keys : string list;  (** l-PathEC(a,b), sorted — the satisfied path conditions *)
}

(** [schema_paths_between schema ~t1 ~t2 ~l] lists the (deduplicated,
    deterministically ordered) schema paths of length <= [l] between the
    types.  A build enumerates these, less any its path filter drops. *)
val schema_paths_between :
  Topo_graph.Schema_graph.t -> t1:string -> t2:string -> l:int -> Topo_graph.Schema_graph.path list

(** [pair_class_reps dg ~paths ~same_type ~a ~b ~caps] is the anchored
    enumeration of one entity pair: the representatives of every path
    class of [paths] instantiated between [a] and [b], orientation-normalized,
    sorted and truncated to [caps.max_reps_per_class] exactly as the sweep
    does, classes ordered by key.  [same_type] must be [t1 = t2]: it also
    reads each path reversed from [a]. *)
val pair_class_reps :
  Topo_graph.Data_graph.t ->
  paths:Topo_graph.Schema_graph.path list ->
  same_type:bool ->
  a:int ->
  b:int ->
  caps:caps ->
  (string * (Topo_graph.Schema_graph.path * int array) array) list

(** [pair_topologies dg ~paths ~same_type ~a ~b ~caps] computes l-Top(a, b)
    directly over [paths] (the anchored enumeration above) and registers
    nothing.  Returns the pair's distinct canonical keys in discovery
    order and its sorted class keys, l-PathEC(a, b); both are empty when
    the pair is unrelated.  Over the paths a build kept, the keys are
    exactly the registry keys of that build's row for the pair. *)
val pair_topologies :
  Topo_graph.Data_graph.t ->
  paths:Topo_graph.Schema_graph.path list ->
  same_type:bool ->
  a:int ->
  b:int ->
  caps:caps ->
  string list * string list

(** {1 Staged sweep API}

    {!Engine.build} flattens several entity-set pairs' sweeps into shared
    task arrays over one pool; these are the stage functions it schedules.
    A caller must pre-intern every path's labels
    ({!Topo_graph.Data_graph.intern_path_labels}) before running
    {!enumerate_path} or {!unions_of_pairs} off the coordinator domain. *)

(** Per-schema-path enumeration result: representatives bucketed by
    (first, last) entity pair. *)
type shard

(** [enumerate_path dg caps ~same_type p] enumerates [p]'s instance paths
    (read-only on [dg]).  [same_type] must be [t1 = t2] for the sweep's
    entity-set pair: it canonicalizes pair keys as (min, max). *)
val enumerate_path :
  Topo_graph.Data_graph.t -> caps -> same_type:bool -> Topo_graph.Schema_graph.path -> shard

(** One entity pair's merged representatives, ready for the union phase. *)
type pending

(** [merge_shards shards] combines per-path shards (pass them in schema
    path order) into one pending record per entity pair, sorted by
    (a, b).  Runs on the coordinator. *)
val merge_shards : shard list -> pending array

(** [pending_classes pd] is the pair's representatives per path class:
    class key and (schema path, node ids) in the orientation the sweep
    stores, untruncated, classes in schema path order.  The arrays are
    copies. *)
val pending_classes :
  pending -> (string * (Topo_graph.Schema_graph.path * int array) array) list

(** The union phase's output for one pair: canonical keys and
    representative graphs, no TIDs yet. *)
type proto

(** [unions_of_pairs pool dg caps pendings] runs the Definition 2
    union/canonicalize/dedup product for every pair, results in input
    order.  Pure apart from reads of [dg].

    A union's shape is fixed by its {e glue signature}: for each chosen
    representative in class order, its schema path (in stored orientation)
    and its node ids renumbered by first occurrence across the union.  The
    canonical key is therefore computed once per signature, through a memo
    that each chunk of pairs makes for itself (one chunk on a one-job
    pool).  A union graph is built only on a memo miss, or by {!commit}
    for the first union of a class new to the registry.  Memo keys embed
    interned label ids, so no memo outlives the call. *)
val unions_of_pairs :
  Topo_util.Pool.t -> Topo_graph.Data_graph.t -> caps -> pending array -> proto array

val proto_combos : proto -> int

val proto_capped : proto -> bool

(** [proto_topos pr] is the pair's distinct canonical keys in discovery
    order, each with the first union graph that produced it (built now if
    the sweep had no need to). *)
val proto_topos : proto -> (string * Topo_graph.Lgraph.t) list

(** [commit registry protos] registers every topology under the key the
    union phase computed, assigning TIDs in array order (sort protos by
    (a, b) first — {!merge_shards} already does), and returns the final
    rows.  A class already in [registry] keeps its representative, so a
    union graph is built only for a class new to it.  Must run on the single domain that
    owns [registry]. *)
val commit : Topology.registry -> proto array -> pair_row list

(** [sweep_stats ~schema_paths ~shards ~protos ~rows] assembles the sweep
    statistics from the stage outputs. *)
val sweep_stats :
  schema_paths:int -> shards:shard list -> protos:proto array -> rows:pair_row list -> stats

(** [union_of_representatives dg reps] builds the instance subgraph that is
    the union of the given paths (each as (schema_path, node ids)); exposed
    for tests of Definition 2. *)
val union_of_representatives :
  Topo_graph.Data_graph.t -> (Topo_graph.Schema_graph.path * int array) list -> Topo_graph.Lgraph.t
