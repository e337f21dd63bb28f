(** Equi-depth histograms over a single column.

    The optimizer's selectivity estimates (Section 5.4.3 statistics items
    1-6) are derived from these histograms plus distinct counts.  Values are
    bucketed by their total order; strings participate via their order. *)

type t

(** [build ?buckets values] sorts a copy of [values] and cuts it into at
    most [buckets] equal-depth buckets (default 32).  Null values are
    counted separately and excluded from buckets. *)
val build : ?buckets:int -> Value.t array -> t

(** [total t] is the number of non-null values summarized. *)
val total : t -> int

(** [null_count t]. *)
val null_count : t -> int

(** [distinct t] is the exact number of distinct non-null values. *)
val distinct : t -> int

(** [selectivity_eq t v] estimates the fraction of rows with value [v],
    using per-bucket distinct counts (exact for values tracked as
    most-common). *)
val selectivity_eq : t -> Value.t -> float

(** [selectivity_range t ?lo ?hi ()] estimates the fraction of rows with
    [lo <= value <= hi] (missing bounds are open). *)
val selectivity_range : t -> ?lo:Value.t -> ?hi:Value.t -> unit -> float

(** [min_value t] / [max_value t] of the non-null population, if any. *)
val min_value : t -> Value.t option

val max_value : t -> Value.t option
