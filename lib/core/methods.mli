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
      cost model. *)

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
    orientation.  @raise Not_found when the pair was not precomputed. *)
val align : Context.t -> Query.t -> aligned

(** [optimizer_spec ctx aligned ~fact ~scheme ~k] is the top-k spec every
    plan-based method hands the optimizer: TopInfo grouped on TID and
    ordered on [scheme]'s score column, [fact] (AllTops or LeftTops) as
    the fact table, and the two aligned endpoints as dimensions. *)
val optimizer_spec :
  Context.t -> aligned -> fact:string -> scheme:Ranking.scheme -> k:int -> Topo_sql.Optimizer.spec

(** {1 Non-top-k methods} — all return ascending TIDs. *)

(** [sql_method ctx aligned] issues one existence probe per observed
    topology (the paper restricts the SQL method to topologies with at
    least one occurrence, "close to 200"); each probe recomputes pair
    topologies from scratch, which is the method's documented
    inefficiency.  The recomputation walks only the schema paths whose
    classes occur in the store's rows, so it honours the build's path
    filter, and it compares canonical keys: it never writes to the
    registry.

    All nine methods share the [?check ?trace] labelled-argument prefix.
    [?check] (default false) verifies physical plans before execution —
    accepted-but-inert here, as the SQL method builds none.  [?trace],
    when given, opens {!Topo_obs.Trace} spans around each method's phases
    (plan building, optimizer choice, execution, pruned-topology checks)
    so [toposearch profile] can show where the time goes. *)
val sql_method : ?check:bool -> ?trace:Topo_obs.Trace.t -> Context.t -> aligned -> int list

(** [full_top ctx aligned] evaluates the single AllTops join of
    Section 3.2.  On every plan-building method, [~check:true] (default
    false) verifies each plan with {!Topo_sql.Plan_check} before execution
    and, for the -ET stream, runs the iterator tree under
    {!Topo_sql.Iterator_check}. *)
val full_top : ?check:bool -> ?trace:Topo_obs.Trace.t -> Context.t -> aligned -> int list

(** [fast_top ctx aligned] evaluates the LeftTops join plus one base-data
    check per pruned topology with the ExcpTops anti-join (SQL1 of
    Section 4.3). *)
val fast_top : ?check:bool -> ?trace:Topo_obs.Trace.t -> Context.t -> aligned -> int list

(** {1 Top-k methods} — return at most [k] (tid, score) pairs, score
    descending. *)

(** The plan-pricing methods run the optimizer's pricing search — the
    regular-plan dynamic program here, the regular-vs-ET choice for the
    -Opt methods — once per call; nothing is memoized across queries. *)
val full_top_k :
  ?check:bool ->
  ?trace:Topo_obs.Trace.t ->
  Context.t -> aligned -> scheme:Ranking.scheme -> k:int -> (int * float) list

val fast_top_k :
  ?check:bool ->
  ?trace:Topo_obs.Trace.t ->
  Context.t -> aligned -> scheme:Ranking.scheme -> k:int -> (int * float) list

(** [impls] optionally pins the DGJ implementations (head = fact level) so
    benchmarks can time the paper's "best and worst plans"; default is all
    IDGJ.  [budget], when given, is ticked once per witness pull (or
    merge step for the Fast variant): a trip stops the loop and the
    results so far are the deterministic prefix of the full answer's
    stream order — the [Partial] outcome's payload. *)
val full_top_k_et :
  ?check:bool ->
  ?trace:Topo_obs.Trace.t ->
  ?budget:Budget.t ->
  Context.t -> aligned -> scheme:Ranking.scheme -> k:int -> ?impls:[ `I | `H ] list -> unit -> (int * float) list

val fast_top_k_et :
  ?check:bool ->
  ?trace:Topo_obs.Trace.t ->
  ?budget:Budget.t ->
  Context.t -> aligned -> scheme:Ranking.scheme -> k:int -> ?impls:[ `I | `H ] list -> unit -> (int * float) list

(** The cost-based choices; also return which strategy the optimizer
    picked.  [budget] reaches only the early-termination branch — a
    regular plan runs to completion. *)
val full_top_k_opt :
  ?check:bool ->
  ?trace:Topo_obs.Trace.t ->
  ?budget:Budget.t ->
  Context.t -> aligned -> scheme:Ranking.scheme -> k:int -> (int * float) list * Topo_sql.Optimizer.strategy

val fast_top_k_opt :
  ?check:bool ->
  ?trace:Topo_obs.Trace.t ->
  ?budget:Budget.t ->
  Context.t -> aligned -> scheme:Ranking.scheme -> k:int -> (int * float) list * Topo_sql.Optimizer.strategy

(** [dispatch method_ ?check ?trace ?impls ?budget ctx aligned ~scheme ~k]
    is the single entry point over the method enum: it lifts every result
    to the uniform [(tid, score option)] shape (scores present exactly for
    top-k methods) and reports the -Opt methods' strategy choice.
    [?impls] reaches only the -ET methods and [?budget] (the deadline)
    only the early-termination loops — every other method runs to
    completion, so complete answers are bit-identical with and without a
    deadline.
    {!Engine}, the serving tier and the benchmarks route through this
    instead of hand-written nine-way matches. *)
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
