(** The nine query-evaluation methods of the experimental study
    (Section 6.1): SQL, Full-Top, Fast-Top, Full-Top-k, Fast-Top-k,
    Full-Top-k-ET, Fast-Top-k-ET, Full-Top-k-Opt and Fast-Top-k-Opt.

    All methods answer the same question — the (top-k) l-topology result of
    a 2-query — against the same context; they differ in which derived
    tables they touch and how much work they can skip:

    - Full-* methods read the complete AllTops table (Section 3.2).
    - Fast-* methods read the pruned LeftTops table and re-derive pruned
      topologies from base data with ExcpTops anti-checks (Section 4.3).
    - *-k methods stop at the k best topologies under a ranking scheme
      (Section 5.1).
    - *-ET methods evaluate through DGJ-operator plans with early
      termination (Section 5.3).
    - *-Opt methods pick between the -k and -ET plans with the Section 5.4
      cost model, and a regular choice runs the plan that was priced. *)

(** The method enum, in the order of Table 2's rows.  This module owns the
    type; {!Engine} re-exports it (constructors included) so callers keep
    writing [Engine.Fast_top_k_opt]. *)
type method_ =
  | Sql
  | Full_top
  | Fast_top
  | Full_top_k
  | Fast_top_k
  | Full_top_k_et
  | Fast_top_k_et
  | Full_top_k_opt
  | Fast_top_k_opt

(** Every method, in the order of Table 2's rows. *)
val all_methods : method_ list

(** [method_name m] is the paper's name, e.g. ["Fast-Top-k-ET"]. *)
val method_name : method_ -> string

(** [ranks m] is false for the three methods (SQL, Full-Top, Fast-Top)
    that ignore the ranking scheme and k entirely; the cache key
    normalizes on this. *)
val ranks : method_ -> bool

type aligned = {
  store : Store.t;
  ea : Query.endpoint;  (** the endpoint on the store's E1 side *)
  eb : Query.endpoint;  (** the E2 side *)
  a_ids : int array Lazy.t;
      (** ids satisfying [ea], ascending, from {!Context.satisfying_ids}:
          per-query state the pruned-topology checks force on first use.
          The array may be the entity table's id lane, shared with every
          other query: read it, never write it. *)
  b_ids : int array Lazy.t;
      (** ids satisfying [eb], ascending, forced like [a_ids]: a check
          walks from one of the two sets (see {!pruned_walk_side}) and
          tests each far end against the other with {!Context.mem_id} *)
}

(** [align ctx query] resolves the query's entity pair to its store,
    swapping endpoints if the query was phrased in the opposite
    orientation; [None] when the pair was not precomputed. *)
val align : Context.t -> Query.t -> aligned option

(** [optimizer_spec aligned ~fact ~scheme ~k] is the top-k spec every
    plan-based method hands the optimizer: TopInfo grouped on TID and
    ordered on [scheme]'s score column, [fact] (AllTops or LeftTops) as
    the fact table, the two aligned endpoints as dimensions, and the
    store's Card_i for [fact] and [scheme]. *)
val optimizer_spec :
  aligned -> fact:string -> scheme:Ranking.scheme -> k:int -> Topo_sql.Optimizer.spec

(** [dispatch method_ ?check ?trace ?impls ?budget ctx aligned ~scheme ~k]
    evaluates [method_]; it is the one evaluator this module exports.
    Non-top-k methods return ascending TIDs without scores, top-k
    methods at most [k] scored TIDs, score descending, and -Opt methods
    also report the optimizer's strategy.  Full-Top is the AllTops join
    of Section 3.2, Fast-Top the LeftTops join plus the ExcpTops-checked
    pruned topologies (SQL1, Section 4.3), Fast-Top-k SQL4 then SQL5.
    SQL issues one existence probe per observed topology ("close to
    200" in the paper), recomputing pair topologies over the schema
    paths the build kept and comparing canonical keys: it never writes
    to the registry.

    [check] (default false) verifies each plan with
    {!Topo_sql.Plan_check} and runs -ET iterator trees under
    {!Topo_sql.Iterator_check}.  [trace] opens {!Topo_obs.Trace} spans
    around each phase.  [impls] pins the -ET methods' DGJ
    implementations (head = fact level; default all IDGJ).  [budget]
    reaches only the early-termination loops, ticked once per witness
    pull or merge step: a trip leaves the deterministic prefix of the
    full answer, the [Partial] payload.  Every other method runs to
    completion, so complete answers are bit-identical with and without
    a deadline. *)
val dispatch :
  method_ ->
  ?check:bool ->
  ?trace:Topo_obs.Trace.t ->
  ?impls:[ `I | `H ] list ->
  ?budget:Budget.t ->
  Context.t ->
  aligned ->
  scheme:Ranking.scheme ->
  k:int ->
  (int * float option) list * Topo_sql.Optimizer.strategy option

(** [pruned_walk_side ctx aligned] is the endpoint a pruned-topology check
    walks its first path class from: the side whose satisfying fraction
    [|ids| / rows] is smaller ([`E2] only when strictly smaller).  A walk
    from either side costs about that fraction times the class's instance
    paths, whether it finds a pair or not.  Exposed for tests. *)
val pruned_walk_side : Context.t -> aligned -> [ `E1 | `E2 ]

(** [pruned_check ctx aligned topology] decides whether some qualifying
    pair satisfies the pruned topology's path condition and survives the
    ExcpTops anti-check — the bottom sub-query of SQL1/SQL5.  Exposed for
    tests. *)
val pruned_check : Context.t -> aligned -> Topology.t -> bool
