(** Row-number join pipelines.

    A pipeline executes one left-deep chain of single-int-key joins over
    base tables — a [Scan]/[OrderedScan] leaf under index nested-loop,
    IDGJ and hash-join steps whose build side is a base-table scan — as
    one iterator.  It keeps one current row number per relation, reads
    join keys from {!Table.int_lane}s, walks {!Int_table} chains (the
    tables' cached {!Table.int_index}, or a predicated build's table
    filled at [open_]), and builds a [Value.t] tuple only when the chain's
    root emits: the whole concatenation, or just the projected columns.
    {!Physical.lower} decides where chains start and end
    ({!Physical.kernel_site}).

    Equivalence is bit-exact: results, row order, [last_group],
    [advance_group] and every {!Iterator.Counters} increment match the
    generic operators the chain replaces.  Matches follow the generic
    bucket (row) order; each level credits the events its generic
    operator credits (scan leaf: a scanned row per row read and a tuple
    per kept row; probe step: a probe per outer row and a tuple per kept
    inner row; hash build: in bulk at [open_]), batched per [next] call;
    and a key column with a non-int cell is never read — {!pipeline}
    refuses the chain instead. *)

(** {1 Ambient toggle}

    One switch for the whole process — the equivalence tests run the same
    workload with kernels on and off and compare fingerprints.  Queries running concurrently with a toggle may observe
    either setting (plans are lowered once, at query start). *)

val kernels_on : unit -> bool

(** [with_kernels b f] runs [f ()] with the toggle forced to [b], restoring
    the previous setting afterwards. *)
val with_kernels : bool -> (unit -> 'a) -> 'a

(** {1 Selection vectors} *)

(** [select table pred] is the vector of [table]'s row numbers satisfying
    [pred] (decided by {!Row_filter.compile}), in row order — a predicated
    hash build indexes only these. *)
val select : Table.t -> Expr.t -> Int_table.Vec.t

(** {1 Pipelines} *)

(** The chain's leaf: a sequential scan ([order = None]) or an ordered
    scan over [order]'s row numbers, filtered by [pred]; a [grouped] leaf
    makes each kept row its own group (the DGJ group source). *)
type leaf = { table : Table.t; order : int array option; pred : Expr.t option; grouped : bool }

type join = Index_nl | Idgj | Hash_join

(** One join step: the inner (probed or built) [table] joined on its
    column [col] to position [outer_pos] of the tuple the chain below
    produces.  [pred] filters inner rows; for [Hash_join] it is the build
    scan's predicate. *)
type step = { join : join; table : Table.t; col : int; pred : Expr.t option; outer_pos : int }

(** [pipeline ~schema leaf steps ~project] runs [steps] (bottom-up) over
    [leaf].  With [project = Some cols] it emits those positions of the
    concatenated tuple, as a [Project] directly above would; [schema] is
    the output schema.  [None] when a key column on either side of some
    step has no int lane — the caller then cuts the chain below it.  Key
    lanes, int indexes and ordered row numbers are resolved here, at
    lowering; the catalog must not change before the iterator is drained.
    @raise Invalid_argument when a key or projected position is out of
    range. *)
val pipeline :
  schema:Schema.t -> leaf -> step array -> project:int list option -> Iterator.t option
