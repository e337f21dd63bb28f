(** EXPLAIN ANALYZE: execute a plan instrumented and report, per operator,
    the measured rows / next() calls / wall time next to the optimizer's
    estimated cardinality and cost, flagging nodes whose estimate is off by
    more than 10x (the validation the paper's Figures 12-16 perform by
    hand).

    Backs [toposearch explain --analyze]. *)

type node = {
  label : string;
  est_rows : float;  (** {!Estimate} cardinality *)
  est_cost : float;  (** cumulative abstract cost *)
  actual_rows : int;
  opens : int;
  nexts : int;
  advances : int;
  time_s : float;  (** inclusive wall time *)
  self_s : float;  (** [time_s] minus the children's [time_s] *)
  misestimate : bool;  (** estimate and actual differ by more than 10x *)
  children : node list;
}

type report = {
  root : node;
  total_s : float;  (** wall time of the full open/drain/close *)
  row_count : int;  (** result cardinality *)
}

(** [of_sql catalog text] parses, plans ([?check] as {!Topo_sql.Sql.to_plan},
    default true), lowers instrumented, drains, and zips the per-operator
    stats with the estimates.
    @raise Topo_sql.Sql_parser.Parse_error (etc.) on bad input. *)
val of_sql : ?check:bool -> Topo_sql.Catalog.t -> string -> report * Topo_sql.Tuple.t list

(** [misestimated report] collects the flagged nodes, preorder. *)
val misestimated : report -> node list

(** [to_text report] is the indented per-operator tree, one line per node:

    {v HashJoin  rows=12 est=30 (2.5x) nexts=13 time=0.12ms self=0.04ms v}

    Flagged nodes get a [!] marker. *)
val to_text : report -> string

(** [to_json report] is the machine-readable form used by the CLI's
    [--json-out]. *)
val to_json : report -> Json.t
