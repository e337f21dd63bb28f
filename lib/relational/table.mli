(** In-memory tables.

    A table owns its rows, an optional primary-key hash index, and any
    number of named secondary indexes.  Insertion freezes no state: indexes
    built before later insertions are invalidated and rebuilt lazily, which
    matches the paper's bulk-load-then-query lifecycle ("updates are only
    done in bulk every few weeks").

    A table has one storage: a growable [Tuple.t] array.  Everything else —
    the row snapshot, secondary indexes, keyword postings, and the int
    lanes and {!Int_table} indexes the execution kernels probe — is derived
    from it lazily and rebuilt after inserts.  Snapshot load inserts rows
    like any other producer. *)

type t

(** [create ~name ~schema ?primary_key ()] makes an empty table.
    [primary_key] names a column; inserts enforce uniqueness on it. *)
val create : name:string -> schema:Schema.t -> ?primary_key:string -> unit -> t

(** [name t]. *)
val name : t -> string

(** [schema t]. *)
val schema : t -> Schema.t

(** [insert t tuple] appends a row.
    @raise Invalid_argument on arity mismatch or duplicate primary key. *)
val insert : t -> Tuple.t -> unit

(** [insert_values t values] convenience for literal rows. *)
val insert_values : t -> Value.t list -> unit

(** [row_count t]. *)
val row_count : t -> int

(** [get t rowno] fetches by physical row number.
    @raise Invalid_argument when [rowno] is out of range. *)
val get : t -> int -> Tuple.t

(** [rows t] is a snapshot array of all rows (shared tuples).  The array is
    cached and returned again by later calls until the next insert, so
    repeated index builds and scans over a frozen table — the
    bulk-load-then-query lifecycle — copy nothing.  Treat it as read-only:
    mutating it corrupts every other holder of the snapshot. *)
val rows : t -> Tuple.t array

(** [iter f t] applies [f rowno tuple] in physical order. *)
val iter : (int -> Tuple.t -> unit) -> t -> unit

(** [find_by_pk t key] fetches the unique row whose primary-key column
    equals [key], using the primary-key hash index {!insert} maintains.
    @raise Invalid_argument if the table has no primary key. *)
val find_by_pk : t -> Value.t -> Tuple.t option

(** [primary_key t] is the primary-key column name, if any. *)
val primary_key : t -> string option

(** [ensure_index t ~kind ~cols] returns the index on the named columns,
    building (or rebuilding after inserts) as needed.  Indexes are cached
    per (kind, column list); cold-cache fills are serialized under the
    table's cache lock, so concurrent readers (the serving tier) may call
    this freely on a frozen table.  Nothing about indexes is persisted: a
    snapshot-loaded table builds each one on its first probe, like a
    freshly built table does. *)
val ensure_index : t -> kind:Index.kind -> cols:string list -> Index.t

(** [int_lane t ci] is column [ci]'s cells as a flat int array when every
    cell is [Value.Int] — the precondition for the int-specialized kernels —
    derived from the rows on first use and cached (as is the answer
    [None]) until the next insert.  Treat the array as read-only. *)
val int_lane : t -> int -> int array option

(** [int_index t ci] is a cached int-keyed hash multimap from column [ci]'s
    values to row numbers (chains in row order), or [None] when
    {!int_lane} is.  The kernels' allocation-free replacement for a
    [Index.Hash] index on one int column. *)
val int_index : t -> int -> Int_table.t option

(** [keyword_rows t ci keyword] is the ascending row numbers whose column
    [ci] holds a [Str] containing [keyword] as a whole word, case
    insensitively — exactly the rows where {!Expr.keyword_matches} holds.
    Answered from the column's keyword postings (every token of
    {!Expr.iter_tokens} with its rows), derived on the first lookup of the
    column, rebuilt after inserts, never persisted.  Cold-cache fills are
    serialized under the table's cache lock like {!ensure_index}.  The
    array is shared with every other caller: treat it as read-only.
    @raise Invalid_argument for an out-of-range column or a keyword that
    is not {!Expr.single_word}. *)
val keyword_rows : t -> int -> string -> int array

(** [byte_size t] is the estimated storage size: sum of row widths.  This is
    the quantity reported in Table 1. *)
val byte_size : t -> int
