(** Weak relationships (Section 6.2.3 and Appendix B).

    Long paths that repeat indirect relationships — P-D-P, P-U-P, P-F-P,
    F-W-F segments — usually connect remotely related or unrelated
    entities.  The paper's proposed remedy is to prune them with domain
    knowledge; this module classifies schema paths and topologies and
    provides the Table 4 inventory. *)

(** [is_weak_path p] is true when [p] has length >= 4 and its type sequence
    contains a weak segment — the paper's criterion for relationships "of
    limited interest to biologists". *)
val is_weak_path : Topo_graph.Schema_graph.path -> bool

(** [is_weak_class_key key] decides on a path-class key
    (see {!Topo_graph.Schema_graph.path_key}). *)
val is_weak_class_key : string -> bool

(** [is_weak_topology t] is true when every path class in the topology's
    decomposition of length >= 4 is weak and at least one class is weak —
    i.e. the complex structure exists only by virtue of weak paths. *)
val is_weak_topology : Topology.t -> bool

(** [contains_weak_class t] is true when any class in the decomposition is
    weak (the "dilution" condition of Figure 17). *)
val contains_weak_class : Topology.t -> bool

(** [table4] is Appendix B's inventory: (type-sequence shorthand,
    explanation). *)
val table4 : (string * string) list

(** {1 Reliability — the graded alternative formulation}

    Appendix B describes weak relationships as transitive chains that get
    "less and less reliable" each time an indirect relationship is
    repeated.  Instead of the binary weak/strong cut of {!is_weak_path},
    this model assigns each relationship set a reliability in (0, 1]
    (direct biochemical links high, homology/pathway context low), scores
    a path by the product over its edges with an extra decay per weak
    segment, and scores a topology by its best derivation's weakest
    class — a chain is only as trustworthy as its weakest link.  The
    third future-work item of Section 8. *)

(** [path_reliability p] = product of edge reliabilities x 0.5 per weak
    segment occurrence. *)
val path_reliability : Topo_graph.Schema_graph.path -> float

(** [class_key_reliability key] evaluates a path-class key (the stored
    form in decompositions). *)
val class_key_reliability : string -> float

(** [topology_reliability t] = max over [t.decompositions] of the minimum
    class reliability in the derivation. *)
val topology_reliability : Topology.t -> float

(** [reliability_filter ~threshold] keeps paths with reliability >=
    [threshold]: the path filter {!Engine.build} applies for its
    [min_reliability], the graded generalization of [exclude_weak]. *)
val reliability_filter : threshold:float -> Topo_graph.Schema_graph.path -> bool
