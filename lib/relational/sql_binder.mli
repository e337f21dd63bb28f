(** Name resolution and planning for parsed SQL.

    The binder resolves table aliases and column names against a catalog,
    classifies WHERE conjuncts into local predicates (pushed into scans),
    equi-join edges (turned into hash joins over a connected greedy join
    order), correlated [\[NOT\] EXISTS] subqueries (decorrelated into
    semi/anti joins on their equality correlations), and residual filters.
    The result is a {!Physical.t} plan. *)

exception Bind_error of string

(** [plan catalog query] builds an executable plan for the full query
    (UNION chain, ORDER BY, FETCH FIRST). *)
val plan : Catalog.t -> Sql_ast.query -> Physical.t
