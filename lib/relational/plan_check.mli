(** Static well-formedness and invariant checker for physical plans.

    The top-k machinery of Section 5.3 rests on operator invariants that the
    plan constructors cannot express: merge-join inputs must arrive sorted
    on their key columns, DGJ operators must be fed by a {e grouped} source,
    and every positional column reference must be in bounds for the schema
    flowing up from below.  A bad rewrite in {!Optimizer} or {!Sql_binder}
    that breaks one of these silently yields wrong answers; [verify] turns
    such mistakes into structured, located errors instead.

    [verify] walks a {!Physical.t} bottom-up and checks four layers:

    - {b binding}: referenced tables exist in the catalog, index key columns
      ([order_cols], [cols], [table_cols]) are columns of their table, and
      every positional reference ([Project] cols, join [left_cols] /
      [right_cols], [Sort] keys, expression columns) is within the input
      arity;
    - {b typing}: predicates and projection items are type-checked against
      the node's input schema ([ct()] needs a string operand, comparisons
      and join keys may not mix strings with numerics, [Sum]/[Avg] need
      numeric arguments);
    - {b ordering}: an ordering property — the lexicographic sort key, as
      [(position, descending)] pairs — is propagated through the tree so
      that [MergeJoin] sortedness is {e proven} from an [OrderedScan] or
      [Sort] below, never assumed;
    - {b grouping}: a grouped-source property is propagated the same way so
      each [Idgj]/[Hdgj] provably sits on a grouped stream (the Figure 15
      invariant).

    Violations carry a path locator (child-edge labels from the root) and
    pretty-print via {!report}. *)

type side = Left | Right

type kind =
  | Unknown_table of string  (** table not registered in the catalog *)
  | Unknown_index_column of { table : string; column : string }
      (** a named index/order/probe column the table does not have *)
  | Column_out_of_bounds of { what : string; pos : int; arity : int }
      (** positional reference beyond the input schema *)
  | Key_arity_mismatch of { left : int; right : int }
      (** join key arrays of different lengths *)
  | Empty_join_key  (** equi-join with no key columns *)
  | Probe_key_arity_mismatch of { cols : int; key : int }
      (** [IndexProbe] key literal does not cover the indexed columns *)
  | Not_sorted of { side : side; cols : int array }
      (** [MergeJoin] input whose sortedness on [cols] cannot be proven *)
  | Not_grouped  (** DGJ outer input is not a grouped stream *)
  | Type_mismatch of { context : string; detail : string }
      (** expression or join-key typing error *)
  | Union_arity_mismatch of { left : int; right : int }
  | Negative_limit of int
  | Duplicate_columns of string  (** output schema has colliding names *)
  | Kernel_disagreement of { checker : string option; lowering : string option }
      (** the checker's independent kernel-eligibility inference and the
          lowering's {!Physical.kernel_site} disagree — one of the two
          layers drifted ([None] rendered as ["(none)"]) *)

type violation = {
  path : string list;
      (** child-edge labels from the root to the offending node, e.g.
          [["left"; "input"]]; [[]] is the root *)
  node : string;  (** operator name of the offending node *)
  kind : kind;
}

exception Plan_error of violation list

(** The ordering/grouping property lattice value inferred for a node:
    [ordering] is the proven lexicographic sort key of the output (empty
    when nothing is proven), [grouped] whether the output is a grouped
    stream in the DGJ sense. *)
type props = { ordering : (int * bool) list; grouped : bool }

(** [verify catalog plan] is every violation found, in tree order (root
    first along each path).  Never raises. *)
val verify : Catalog.t -> Physical.t -> violation list

(** [check catalog plan] raises {!Plan_error} when [verify] finds
    anything. *)
val check : Catalog.t -> Physical.t -> unit

(** [properties catalog plan] is the inferred property-lattice value of the
    plan root (violations are ignored; unknown tables yield the bottom
    element [{ ordering = []; grouped = false }]).  Exposed for tests and
    for explain-style tooling. *)
val properties : Catalog.t -> Physical.t -> props

(** [report vs] is a newline-joined rendering of all violations (the empty
    string when [vs] is empty). *)
val report : violation list -> string
