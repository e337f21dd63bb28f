(** Canonical forms for labeled graphs.

    Topology identity (Definition 2's equivalence classes) is labeled-graph
    isomorphism; we decide it by computing a canonical key: a string that is
    identical for two graphs iff they are isomorphic.

    Algorithm: iterative color refinement (1-WL) seeded with (node label,
    degree); when the partition is not discrete, individualize a node from
    the first non-singleton class and recurse over its members, keeping the
    lexicographically smallest serialization.  Exact for all graphs; fast
    for the small, label-rich graphs topologies are (the backtracking
    branches only on label-symmetric nodes). *)

(** [key g] is the canonical key.  The key embeds node labels, edge labels
    and structure; it is stable across OCaml versions (no polymorphic
    hashing in the serialization). *)
val key : Lgraph.t -> string

(** [canonical_order g] is a node permutation realizing the canonical form:
    the list of original node ids in canonical position order.  Useful for
    rendering a topology with deterministic node numbering. *)
val canonical_order : Lgraph.t -> int list
