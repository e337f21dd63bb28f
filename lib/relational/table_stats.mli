(** Table statistics for cost-based optimization.

    These are the "regular database statistics" of Section 5.4.3: relation
    cardinalities (N_i), index probe costs (I_i), local-predicate
    selectivities (rho_i) and join selectivities (s_i).  Keyword-containment
    selectivity has no closed form, so it is estimated on a bounded sample of
    the column, like commercial systems estimate LIKE patterns.  A
    single-word keyword is looked up in a token-count table that {!compute}
    and {!restore} derive from the sample; the table is never persisted. *)

type t

(** [compute table] scans the table once and builds histograms for every
    column. *)
val compute : Table.t -> t

(** [columns t] is the number of columns summarized (the table's arity at
    compute time). *)
val columns : t -> int

(** [sample t col] is the bounded per-column sample used for [Contains]
    estimation.  @raise Invalid_argument when out of range. *)
val sample : t -> int -> Value.t array

(** [restore ~row_count ~histograms ~samples ~avg_width] rebuilds a stats
    record from previously extracted state — the snapshot codec's inverse
    of {!compute}.  It re-derives the token-count tables from [samples]. *)
val restore :
  row_count:int ->
  histograms:Histogram.t array ->
  samples:Value.t array array ->
  avg_width:float ->
  t

(** [row_count t]. *)
val row_count : t -> int

(** [histogram t col] for the column position.
    @raise Invalid_argument when out of range. *)
val histogram : t -> int -> Histogram.t

(** [distinct t col] distinct non-null values in a column. *)
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

(** [avg_row_width t] in bytes. *)
val avg_row_width : t -> float
