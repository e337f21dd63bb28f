(** Table statistics for cost-based optimization.

    These are the "regular database statistics" of Section 5.4.3: relation
    cardinalities (N_i), index probe costs (I_i), local-predicate
    selectivities (rho_i) and join selectivities (s_i).  Keyword-containment
    selectivity has no closed form, so it is estimated on a bounded sample of
    the column, like commercial systems estimate LIKE patterns.  A
    single-word keyword is looked up in a token-count table that {!compute}
    derives from the sample.  Statistics are a pure function of the table's
    rows (the sample is systematic), so nothing here is ever persisted: a
    snapshot-loaded catalog derives them on first use like a built one. *)

type t

(** [compute table] scans the table once and builds histograms, samples
    and token-count tables for every column. *)
val compute : Table.t -> t

(** [sample t col] is the bounded per-column sample used for [Contains]
    estimation.  @raise Invalid_argument when out of range. *)
val sample : t -> int -> Value.t array

(** [distinct t col] distinct non-null values in a column.
    @raise Invalid_argument when out of range. *)
val distinct : t -> int -> int

(** [predicate_selectivity t schema expr] estimates the fraction of rows
    satisfying [expr]: comparisons via histograms, [Contains] via the stored
    sample, boolean combinations under independence.  For a non-empty
    keyword of word characters only, [Contains] is one token-table lookup;
    it returns the same float as scanning the sample with
    {!Expr.keyword_matches}, which any other keyword still does. *)
val predicate_selectivity : t -> Schema.t -> Expr.t -> float

(** [join_selectivity ~left ~left_col ~right ~right_col] estimates the
    selectivity of an equi-join as [1 / max(d_left, d_right)], the classic
    System-R formula. *)
val join_selectivity : left:t -> left_col:int -> right:t -> right_col:int -> float
