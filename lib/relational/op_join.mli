(** Regular join operators: hash join, (index) nested-loop join, and the
    hash anti-join used for the paper's NOT EXISTS subqueries against
    ExcpTops.

    All equi-join keys are given as column positions: [left_cols] index the
    outer tuple, [right_cols] the inner tuple.  Output tuples are
    [outer ++ inner]; an optional residual predicate runs over the
    concatenated tuple.  These operators do not preserve groups (their
    output is ungrouped) — the group-preserving variants live in
    {!Op_dgj}. *)

(** [hash_join ~left ~right ~left_cols ~right_cols ?residual ?build_hint ()]
    builds a hash table on [right] (fully drained at open, pre-sized to
    [build_hint] when given) and probes with [left] tuples. *)
val hash_join :
  left:Iterator.t ->
  right:Iterator.t ->
  left_cols:int array ->
  right_cols:int array ->
  ?residual:Expr.t ->
  ?build_hint:int ->
  unit ->
  Iterator.t

(** [index_nl_join ~left ~table ~table_cols ~left_cols ?pred ?residual ()]
    probes a hash index on [table]'s named columns for each [left] tuple;
    [pred] filters inner rows before the join, [residual] filters the
    concatenated output. *)
val index_nl_join :
  left:Iterator.t ->
  table:Table.t ->
  table_cols:string list ->
  left_cols:int array ->
  ?pred:Expr.t ->
  ?residual:Expr.t ->
  unit ->
  Iterator.t

(** [nl_join ~left ~right ?residual ()] plain nested loops; [right] is
    materialized at open.  Used as a last resort for non-equi joins. *)
val nl_join : left:Iterator.t -> right:Iterator.t -> ?residual:Expr.t -> unit -> Iterator.t

(** [anti_join ~left ~right ~left_cols ~right_cols ()] passes through the
    [left] tuples having no key match in [right] — evaluates
    [NOT EXISTS (SELECT 1 FROM right WHERE right.key = left.key)]. *)
val anti_join :
  left:Iterator.t -> right:Iterator.t -> left_cols:int array -> right_cols:int array -> unit -> Iterator.t

(** [semi_join ~left ~right ~left_cols ~right_cols ()] dual of
    {!anti_join}: passes left tuples that do have a match. *)
val semi_join :
  left:Iterator.t -> right:Iterator.t -> left_cols:int array -> right_cols:int array -> unit -> Iterator.t

(** [merge_join ~left ~right ~left_cols ~right_cols ?residual ()] sort-merge
    join: both inputs must already be sorted ascending on their key columns
    (the caller's responsibility — the optimizer only plans this over
    sorted scans or sorts).  Produces the full equality cross product per
    key group; output follows the left input's order. *)
val merge_join :
  left:Iterator.t ->
  right:Iterator.t ->
  left_cols:int array ->
  right_cols:int array ->
  ?residual:Expr.t ->
  unit ->
  Iterator.t
