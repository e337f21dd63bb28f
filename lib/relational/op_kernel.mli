(** Int-specialized execution kernels.

    Drop-in replacements for the generic hash join, index nested-loop join
    and DGJ bucket probe, used when the equi-join key is a single column of
    int values (checked statically by {!Physical.kernel_site} against
    declared types, then dynamically against the table's actual lane).
    Probing an {!Int_table} allocates nothing; the fused-scan probe variant
    reads keys straight off a {!Table.int_lane} and boxes an outer row
    only when it matches.

    Equivalence is bit-exact, counters included: match order follows the
    generic bucket (insertion) order, counters are credited at the same
    points, and key conversion is exact or abandoned — integral floats
    below 2^53 convert, huge integral floats fall back to a per-probe
    linear scan with [Value.equal] semantics, and any non-int build-side
    key drops the whole build to the generic [Op_join.KeyTbl] mode. *)

(** {1 Ambient toggle}

    One switch for the whole process — the bench harness and equivalence
    tests run the same workload with kernels on and off and compare
    fingerprints.  Queries running concurrently with a toggle may observe
    either setting (plans are lowered once, at query start). *)

val kernels_on : unit -> bool

(** [with_kernels b f] runs [f ()] with the toggle forced to [b], restoring
    the previous setting afterwards. *)
val with_kernels : bool -> (unit -> 'a) -> 'a

(** {1 Selection vectors} *)

(** [select table pred] is the vector of [table]'s row numbers satisfying
    [pred] (decided by {!Row_filter.compile}), in row order — a predicated
    build side hashes only these. *)
val select : Table.t -> Expr.t -> Int_table.Vec.t

(** {1 Hash join} *)

type probe_side =
  | Probe_lane of { table : Table.t; lane : int array }
      (** fused predicate-free scan: keys stream off the lane, non-matching
          rows are never boxed *)
  | Probe_iter of Iterator.t

type build_side =
  | Build_table of { table : Table.t; col : int; pred : Expr.t option }
      (** scan build: the table's cached {!Table.int_index} when [pred] is
          [None], else a selection vector over the row snapshot *)
  | Build_iter of { it : Iterator.t; col : int; hint : int }
      (** arbitrary subplan build; [hint] pre-sizes the table *)

(** [hash_join ~schema ~probe ~probe_col ~build ?residual ()] — [schema]
    must be the concatenation the generic lowering would produce
    (probe schema ++ build schema).  [probe_col] indexes the probe tuple;
    it is unused for [Probe_lane] (the lane {e is} the key column). *)
val hash_join :
  schema:Schema.t ->
  probe:probe_side ->
  probe_col:int ->
  build:build_side ->
  ?residual:Expr.t ->
  unit ->
  Iterator.t

(** {1 Index nested-loop join} *)

(** [index_nl_join_int ~schema ~left ~table ~itbl ~left_col ?pred ?residual ()]
    probes [itbl] (the table's {!Table.int_index} on the join column,
    resolved by the lowering) per outer tuple.  Counter contract: one
    [add_probes] per outer tuple, like the generic operator. *)
val index_nl_join_int :
  schema:Schema.t ->
  left:Iterator.t ->
  table:Table.t ->
  itbl:Int_table.t ->
  left_col:int ->
  ?pred:Expr.t ->
  ?residual:Expr.t ->
  unit ->
  Iterator.t

(** {1 DGJ bucket prober} *)

(** [int_bucket_prober itbl key] is [(count, get)] over [key]'s chain —
    the shape of [Index.probe_bucket], same row order.  [get] is O(1) for
    the IDGJ's sequential access pattern. *)
val int_bucket_prober : Int_table.t -> Value.t -> int * (int -> int)
