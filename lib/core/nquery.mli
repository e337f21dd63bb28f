(** Multi-endpoint topology queries — the paper's first future-work item
    ("extensions to support multiple end-points in a topology",
    Section 8).

    An n-query names n entity sets with constraints; a satisfying n-tuple
    (e_1 ... e_n) is summarized by the topology of the union, over every
    endpoint pair (i, j), of one instance path per equivalence class of
    l-PathEC(e_i, e_j) — the direct generalization of Definition 2.  A
    tuple only qualifies when the union connects all n endpoints (possibly
    through each other: two endpoints with no direct path may both attach
    to a third).

    Enumeration starts from the first endpoint's satisfying entities and
    grows tuples through schema-path reachability, so unrelated entity
    combinations are never materialized.  Caps bound the usual
    weak-relationship blowups.

    An n-query writes nothing into the engine: new topologies go into a
    private table over its frozen registry, TIDs past [Topology.count]
    in first-seen order, and results carry the topologies. *)

type row = {
  entities : int array;  (** the n-tuple, in endpoint order *)
  tids : int list;  (** its l-topologies, ascending *)
}

type result = {
  rows : row list;
  topologies : Topology.t list;  (** the distinct topologies over all rows, by ascending TID *)
  tuples_examined : int;
  truncated : bool;  (** true when [max_tuples] stopped enumeration *)
}

(** [run ctx ~endpoints ?max_tuples ()] evaluates an n-query over a built
    context (the endpoints' pairwise stores need not exist; everything is
    computed from the instance graph).  [max_tuples] (default 10_000)
    bounds the satisfying-tuple enumeration.
    @raise Invalid_argument when fewer than 2 endpoints are given. *)
val run : Context.t -> endpoints:Query.endpoint list -> ?max_tuples:int -> unit -> result

(** [tuple_topologies ctx ~types ~entities] computes the topology set of
    one explicit tuple, by ascending TID (exposed for tests): [types] are
    the entity-set names, [entities] the ids. *)
val tuple_topologies : Context.t -> types:string array -> entities:int array -> Topology.t list
