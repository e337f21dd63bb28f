(** Cost-based optimization for distinct top-k group queries (Section 5.4).

    The optimizer handles the SQL6 query class: a {e group relation} whose
    tuples are the groups (TopInfo, one row per topology, carrying a score),
    a {e fact relation} expanding each group into member tuples (LeftTops),
    and {e dimension relations} joined to fact columns with local predicates
    (the selected Proteins / DNAs / Interactions), producing the distinct
    top-k groups by score.

    Two plan families are enumerated, as in the paper:

    - {b regular}: a System-R style dynamic program over left-deep hash /
      index-nested-loop join orders, followed by project, distinct, sort by
      score and limit (the Figure 14 shape);
    - {b early-termination}: an ordered grouped scan of the group relation
      feeding a stack of DGJ operators (the Figure 15 shape), enumerated
      over dimension orders and per-level IDGJ/HDGJ implementations, and
      priced with the {!Dgj_cost} model.

    [choose] returns the cheaper plan along with both estimates so callers
    (and Table 2) can report the optimizer's decision; the -Opt methods
    then execute that plan, so a query is priced once.

    Statistics are read once per call: [regular_plan] derives each join
    edge's column positions and selectivity before its dynamic program,
    and the early-termination pricing reads Card_i from
    [spec.group_cards] when the caller derived them (a store does, where
    it is built or loaded). *)

type dim = {
  dim_table : string;
  dim_alias : string;
  dim_key : string;  (** join column on the dimension side, e.g. ["ID"] *)
  fact_col : string;  (** join column on the fact side, e.g. ["E1"] *)
  dim_pred : Expr.t option;  (** local predicate over the dimension's base schema *)
}

type spec = {
  group_table : string;  (** e.g. TopInfo *)
  group_key : string;  (** e.g. TID *)
  score_col : string;  (** ordering column, scanned descending *)
  group_pred : Expr.t option;
  fact_table : string;  (** e.g. LeftTops *)
  fact_group_col : string;  (** fact column joining to [group_key] *)
  dims : dim list;
  k : int;
  group_cards : int array option;
      (** {!group_cards_of} this spec, derived once by the caller (a
          store derives them where it is built or loaded); [None] derives
          them per call.  Read only when [group_pred] is [None]: a group
          predicate always derives its own. *)
}

type strategy = Regular | Early_termination

(** {1 Cost units}

    Abstract units: one hash-index probe costs [c_probe] = 1.0.
    Sequential access is cheaper per row; hashing and sorting pay
    per-tuple CPU.  EXPLAIN's estimates ([Topo_obs.Estimate]) price
    plans in the same units. *)

val c_scan : float

val c_hash : float

val c_sort : float

val c_probe : float

type decision = {
  plan : Physical.t;
  strategy : strategy;
  regular_cost : float;
  et_cost : float;
}

(** [et_plan catalog spec ~impls ~dim_order] builds the DGJ-stack physical
    plan explicitly: [dim_order] permutes [spec.dims] and [impls] chooses
    IDGJ ([`I]) or HDGJ ([`H]) per level ([impls] also covers the fact
    expansion level at its head).  Exposed so benchmarks can time specific
    plan shapes (the paper's "best and worst plans"). *)
val et_plan : Catalog.t -> spec -> impls:[ `I | `H ] list -> dim_order:int list -> Physical.t

(** [regular_plan catalog spec] is the best regular plan found by the
    join-order dynamic program, with its estimated cost.  With [~check:true]
    every candidate the DP prices, and the returned plan, must pass
    {!Plan_check.check} (raises {!Plan_check.Plan_error} otherwise); tests
    run with it on. *)
val regular_plan : ?check:bool -> Catalog.t -> spec -> Physical.t * float

(** [best_et_plan catalog spec] enumerates dimension orders and per-level
    implementations, pricing each with {!Dgj_cost}; returns the cheapest
    with its cost.  Returns [None] when the fact or group relation is
    empty.  [~check:true] verifies every enumerated candidate and the
    winner. *)
val best_et_plan : ?check:bool -> Catalog.t -> spec -> (Physical.t * float) option

(** [group_cards_of catalog spec ~order ~count] is Card_i of the DGJ
    cost model: for each row of [spec.group_table] in [order] (its rows by
    descending [spec.score_col]) that passes [spec.group_pred], the
    number [count key] of [spec.fact_table] rows joining its
    [spec.group_key] value [key].  Pricing derives [order] and [count]
    from the tables' cached indexes when [spec.group_cards] is [None]; a
    store derives them once, without declaring an index. *)
val group_cards_of :
  Catalog.t -> spec -> order:int array -> count:(Value.t -> int) -> int array

(** [et_candidates catalog spec] is every early-termination candidate
    [best_et_plan] prices, in its enumeration order (dimension orders
    outermost), as [((impls, dim_order), input)] where [input] is the
    {!Dgj_cost} input priced for it.  [best_et_plan] prepares the
    hit-probability terms once per dimension order and keeps the first
    candidate of least cost.  Exposed for tests. *)
val et_candidates :
  Catalog.t -> spec -> (([ `I | `H ] list * int list) * Dgj_cost.input) list

(** [choose catalog spec] runs both searches and picks the cheaper plan.
    [~check] is forwarded to both searches. *)
val choose : ?check:bool -> Catalog.t -> spec -> decision

(** [run_topk catalog spec decision] executes the decision and returns the
    top-k [(group_key_value, score)] pairs in descending score order.  For
    an [Early_termination] plan this drives the DGJ stack with
    [first_match_per_group]; for a [Regular] plan it drains the plan. *)
val run_topk : Catalog.t -> spec -> decision -> (Value.t * float) list
