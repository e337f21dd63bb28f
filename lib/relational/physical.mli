(** Physical query plans.

    A plan is a tree of physical operators that {!lower} turns into a
    Volcano iterator against a catalog.  Column references inside plans are
    positional against the node's input schema(s); {!schema} computes output
    schemas bottom-up (scans with an alias expose qualified column names
    like ["P.ID"]). *)

type t =
  | Scan of { table : string; alias : string option; pred : Expr.t option }
  | OrderedScan of {
      table : string;
      alias : string option;
      order_cols : string list;
      desc : bool;
      pred : Expr.t option;
      grouped : bool;  (** each tuple forms a group (DGJ group source) *)
    }
  | IndexProbe of { table : string; alias : string option; cols : string list; key : Value.t array; pred : Expr.t option }
  | Filter of { input : t; pred : Expr.t }
  | Project of { input : t; cols : int list }
  | HashJoin of { left : t; right : t; left_cols : int array; right_cols : int array; residual : Expr.t option }
  | MergeJoin of { left : t; right : t; left_cols : int array; right_cols : int array; residual : Expr.t option }
      (** both inputs must be sorted ascending on their key columns *)
  | NLJoin of { left : t; right : t; residual : Expr.t option }
  | IndexNL of {
      left : t;
      table : string;
      alias : string option;
      table_cols : string list;
      left_cols : int array;
      pred : Expr.t option;
      residual : Expr.t option;
    }
  | Idgj of {
      left : t;
      table : string;
      alias : string option;
      table_cols : string list;
      left_cols : int array;
      pred : Expr.t option;
      residual : Expr.t option;
    }
  | Hdgj of {
      left : t;
      table : string;
      alias : string option;
      table_cols : string list;
      left_cols : int array;
      pred : Expr.t option;
      residual : Expr.t option;
    }
  | Sort of { input : t; by : (int * bool) list }
  | Distinct of t
  | Union of t * t
  | AntiJoin of { left : t; right : t; left_cols : int array; right_cols : int array }
  | SemiJoin of { left : t; right : t; left_cols : int array; right_cols : int array }
  | Limit of int * t
  | Compute of { input : t; items : (Expr.t * string * Schema.ty) list }
      (** generalized projection: each output column is an expression over
          the input tuple, with a name and a declared type *)
  | Aggregate of {
      input : t;
      keys : (Expr.t * string * Schema.ty) list;  (** group-by keys *)
      aggs : (agg_kind * Expr.t option * string * Schema.ty) list;
          (** aggregate functions; output columns are keys then aggs *)
    }

and agg_kind = Count_star | Count | Sum | Min | Max | Avg

(** [schema catalog plan] is the output schema. @raise Not_found for unknown
    tables. *)
val schema : Catalog.t -> t -> Schema.t

(** [node_label plan] is the root operator's display label, e.g.
    ["HashJoin"] or ["SeqScan Protein"]. *)
val node_label : t -> string

(** [children plan] is the root's direct inputs, left before right; leaves
    (scans and probes) have none. *)
val children : t -> t list

(** The join step a node is in a pipeline ({!Op_kernel}). *)
type kernel = Kernel_hash_join | Kernel_index_nl | Kernel_idgj

val kernel_name : kernel -> string

(** [kernel_site catalog plan] is the chain-eligibility rule: [Some] when
    [plan] is a pipeline step — a [HashJoin] whose build side is a
    base-table [Scan], an [IndexNL] or an [Idgj], joining on one column
    declared int on both sides, with no residual — over a base-table
    [Scan]/[OrderedScan] leaf or another step.  A chain therefore ends
    below the first node that is not a step; everything above it lowers
    to the generic operators.  The lowering also re-checks the actual
    int lanes and cuts the chain below a step whose key column holds a
    non-int cell, so a [Some] here promises identical results either way,
    not that the pipeline runs.  {!Plan_check.verify} cross-checks its
    own inference against this. *)
val kernel_site : Catalog.t -> t -> kernel option

(** [estimate_rows catalog plan] is a structural output-cardinality bound
    (scan row counts through order/limit-preserving shapes), used to
    pre-size join hash tables.  [None] when the shape admits no cheap
    bound. *)
val estimate_rows : Catalog.t -> t -> int option

(** [lower catalog plan] builds the iterator tree.  With the kernels on
    ({!Op_kernel.kernels_on}), each maximal chain (see {!kernel_site}),
    together with a [Project] directly above it, runs as one
    {!Op_kernel.pipeline}. *)
val lower : Catalog.t -> t -> Iterator.t

(** [lower_checked catalog plan] is {!lower} with every operator — a
    pipeline counts as one, at its root — wrapped in
    {!Iterator_check.wrap}, so protocol misuse raises
    {!Iterator_check.Protocol_error} at the offending node.  Debug/test
    use. *)
val lower_checked : Catalog.t -> t -> Iterator.t

(** [lower_instrumented catalog plan] is {!lower} without pipelines,
    every plan node lowered to its own generic operator and wrapped in
    {!Op_stats.wrap}; the returned tree mirrors the plan
    ({!children} order) and fills in as the iterator is driven.  Powers
    EXPLAIN ANALYZE ([Topo_obs.Explain_analyze]). *)
val lower_instrumented : Catalog.t -> t -> Iterator.t * Op_stats.annotated

(** [run catalog plan] lowers and drains to a tuple list. *)
val run : Catalog.t -> t -> Tuple.t list

(** [explain plan] is an indented operator-tree rendering, one operator per
    line, like the plans of Figure 14/15. *)
val explain : t -> string
