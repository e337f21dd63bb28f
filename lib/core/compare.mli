(** Comparing topologies across queries — the paper's second future-work
    item ("primitives for comparing topologies across multiple queries",
    Section 8).

    The primitives operate on the TID sets of two query results plus the
    shared registry:

    - set algebra ({!diff}): topologies common to both results and
      exclusive to each — "which relationship shapes appear for human TFs
      but not for yeast TFs?";
    - structural containment ({!maximal}): topology A
      subsumes B when B's shape embeds into A's (subgraph isomorphism), so
      A is a strictly richer relationship; a result list can be collapsed
      to its maximal shapes. *)

type diff = { common : int list; only_left : int list; only_right : int list }

(** [diff ~left ~right] partitions the two TID sets (inputs may be
    unsorted; outputs ascending). *)
val diff : left:int list -> right:int list -> diff

(** [maximal registry tids] keeps only the TIDs not strictly subsumed by
    another member of the list — the "big picture" shapes. *)
val maximal : Topology.registry -> int list -> int list
