(** Materialized topology tables and the Topology Pruning module
    (Sections 3.2 and 4.2).

    For one entity-set pair the store materializes, as real tables in the
    catalog (so both the Full-Top and Fast-Top query engines and the SQL
    front end can address them):

    - [AllTops_<T1>_<T2>(E1, E2, TID)] — every pair with every topology
      relating it,
    - [TopInfo_<T1>_<T2>(TID, freq, npaths, simple, score_freq,
      score_rare, score_domain, detail)] — per-topology metadata and the
      three ranking scores,
    - [LeftTops_<T1>_<T2>] — AllTops minus rows of pruned topologies,
    - [ExcpTops_<T1>_<T2>(E1, E2, TID)] — the exception table: pairs that
      satisfy a pruned topology's path condition but are actually related
      by a more complex topology (the paper's (78, 215) vs T2 example).

    Pruning follows Section 4.2.2: every topology with frequency strictly
    greater than [pruning_threshold] is pruned. *)

type t = {
  t1 : string;
  t2 : string;
  alltops : string;  (** table name *)
  lefttops : string;
  excptops : string;
  topinfo : string;
  pruned : Topology.t list;  (** pruned topologies, by descending frequency *)
  frequencies : (int, int) Hashtbl.t;  (** tid -> freq for this pair: TopInfo's freq column *)
  cards : (string * Ranking.scheme * int array) list;
      (** {!Topo_sql.Optimizer.group_cards_of} TopInfo over AllTops and
          LeftTops under each scheme, derived where the store is built or
          loaded and never saved *)
}

(** [build catalog interner registry ~rows ~t1 ~t2 ~pruning_threshold]
    materializes all four tables (replacing previous versions for the same
    pair) and returns the store handle.  The handle keeps no reference to
    [rows]: everything the online phase needs of the sweep is in the
    tables, the registry and [pruned]. *)
val build :
  Topo_sql.Catalog.t ->
  Topo_util.Interner.t ->
  Topology.registry ->
  rows:Compute.pair_row list ->
  t1:string ->
  t2:string ->
  pruning_threshold:int ->
  t

(** [restore catalog registry ~t1 ~t2 ~pruned] is the handle of the
    T1-T2 store whose four tables [catalog] already holds, as a snapshot
    load rebuilds it: [pruned] are the TIDs in {!build}'s order (its tie
    order cannot be recomputed from the tables), [frequencies] are read
    from TopInfo's freq column and [cards] derived as {!build} derives
    them.
    @raise Not_found when a table is missing.
    @raise Invalid_argument naming the TID when a pruned TID is not in
    [registry]. *)
val restore : Topo_sql.Catalog.t -> Topology.registry -> t1:string -> t2:string -> pruned:int list -> t

(** [cards store ~fact scheme] is the derived Card_i for one fact table
    and scheme; [None] for a table the store does not hold. *)
val cards : t -> fact:string -> Ranking.scheme -> int array option

(** [frequency store tid] (0 when the topology never occurs for this
    pair). *)
val frequency : t -> int -> int

(** [score_of store catalog scheme tid] reads the scheme's score from the
    TopInfo table.  @raise Not_found for unknown TIDs. *)
val score_of : t -> Topo_sql.Catalog.t -> Ranking.scheme -> int -> float

(** [is_excepted store catalog ~a ~b ~tid] probes the exception table. *)
val is_excepted : t -> Topo_sql.Catalog.t -> a:int -> b:int -> tid:int -> bool

(** [space store catalog] is [(alltops_bytes, lefttops_bytes,
    excptops_bytes)] — the Table 1 accounting. *)
val space : t -> Topo_sql.Catalog.t -> int * int * int

(** [table_names ~t1 ~t2] is [(alltops, lefttops, excptops, topinfo)]. *)
val table_names : t1:string -> t2:string -> string * string * string * string
