(** Subgraph isomorphism (Section 2.1's definition).

    [embeds ~pattern ~host] decides whether there is an injection from
    pattern nodes to host nodes preserving node labels and mapping every
    pattern edge to a host edge with the same label — exactly the paper's
    "subgraph isomorphic" relation.  [anchors] pre-pins pattern nodes to
    host nodes, which is how the topology engine checks "entities a and b
    are related by a graph shaped like T": the two query endpoints are
    anchored.

    Backtracking search ordered by pattern degree; adequate for the small
    patterns topologies are. *)

val embeds : pattern:Lgraph.t -> host:Lgraph.t -> ?anchors:(int * int) list -> unit -> bool
