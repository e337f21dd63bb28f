(** Distinct Group Join operators (Section 5.3).

    A DGJ operator joins a {e grouped} outer stream with an inner relation
    while (a) preserving the order of groups from input to output and
    (b) supporting [advance_group] so a consumer can abandon the rest of a
    group the moment one witness tuple has been produced — the mechanism
    behind the Fast-Top-k-ET early-termination plans of Figure 15.

    Two implementations, as in the paper:

    - {b IDGJ} — index nested-loops: group order is preserved because any
      nested-loops join preserves the outer order; [advance_group] simply
      discards the current probe state and propagates to the outer.
    - {b HDGJ} — hash-based: the join is performed one group at a time (the
      group's outer tuples are hashed, then the inner relation is
      re-scanned for each group), which preserves group order at the price
      of repeated inner scans.

    Both output [outer ++ inner] tuples tagged with the outer group id. *)

(** [idgj ~outer ~table ~table_cols ~outer_cols ?pred ?residual ()]
    index nested-loop DGJ against a base table: for each outer tuple, probe
    the hash index on [table_cols] with the outer tuple's [outer_cols]
    values; [pred] filters inner rows, [residual] the joined tuple. *)
val idgj :
  outer:Iterator.t ->
  table:Table.t ->
  table_cols:string list ->
  outer_cols:int array ->
  ?pred:Expr.t ->
  ?residual:Expr.t ->
  unit ->
  Iterator.t

(** [hdgj ~outer ~table ~table_cols ~outer_cols ?pred ?residual ()]
    hash-based DGJ: collects one whole group of outer tuples, builds a hash
    table on their [outer_cols], then scans [table] (filtered by [pred])
    probing it, emitting matches in inner-scan order.  The inner relation is
    re-scanned once per group. *)
val hdgj :
  outer:Iterator.t ->
  table:Table.t ->
  table_cols:string list ->
  outer_cols:int array ->
  ?pred:Expr.t ->
  ?residual:Expr.t ->
  unit ->
  Iterator.t

(** [first_match_per_group it ~k] drives a DGJ stack the way the
    Fast-Top-k-ET evaluator does: reads tuples, and on the first tuple of
    each group records it, immediately calls [advance_group], and stops
    after [k] groups have produced a witness.  Returns the witnesses with
    their group ids, in group order. *)
val first_match_per_group : Iterator.t -> k:int -> (int * Tuple.t) list
