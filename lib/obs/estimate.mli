(** Per-node cardinality and cost estimates for a physical plan.

    This is the optimizer's pricing made inspectable: the same catalog
    statistics ({!Topo_sql.Table_stats} histograms, distinct counts, the
    System-R join-selectivity formula) and the same abstract cost units as
    {!Topo_sql.Optimizer} (one hash-index probe = 1.0), evaluated bottom-up
    over an arbitrary {!Topo_sql.Physical.t} so EXPLAIN ANALYZE can print
    the estimate next to each operator's measured numbers.

    Estimates over derived inputs are best-effort: join columns are traced
    back to base tables through position-preserving operators; predicates
    that cannot be resolved fall back to textbook default selectivities.
    [Distinct] keeps its input estimate (an upper bound) — exactly the
    kind of node the estimate-vs-actual report is designed to flag. *)

type est = { rows : float;  (** estimated output cardinality *) cost : float  (** cumulative abstract cost, subtree included *) }

(** Estimate tree mirroring the plan in {!Topo_sql.Physical.children}
    order. *)
type node = { label : string; est : est; children : node list }

(** [annotate catalog plan] estimates every node bottom-up. *)
val annotate : Topo_sql.Catalog.t -> Topo_sql.Physical.t -> node
