(** Compiled base-table predicates.

    [compile table pred] decides [Expr.truthy pred] for a row of [table]
    given its row number.  Each conjunct of [pred]'s top-level [And]
    (flattened) of the form [Contains (Col c, keyword)] with a
    {!Expr.single_word} keyword becomes a row bitmap built once from
    {!Table.keyword_rows}; every other conjunct is evaluated by
    {!Expr.truthy} on the tuple.  Conjuncts are tested in order, stopping
    at the first false one, as [Expr.eval] does.

    This is exact: a word-bounded match of a single-word keyword is a
    token equal to it, and [Null], [Int] and [Float] cells have no tokens,
    just as [Contains] is false (or [Null]) on them.  Operators compile
    once per instance, when the plan is lowered; rows appended after the
    compile are evaluated on the tuple. *)

type t = int -> Tuple.t -> bool

(** [compile table pred] — the result takes a row number of [table] and
    that row's tuple. *)
val compile : Table.t -> Expr.t -> t

(** [rows table pred] is the ascending row numbers of [table] where
    [Expr.truthy pred] holds, as {!compile} decides it.  A predicate that
    is one single-word keyword is answered by its posting; any other is
    tested on every row in one pass.  The result may be a posting shared
    with {!Table.keyword_rows}'s other callers: treat it as read-only. *)
val rows : Table.t -> Expr.t -> int array
