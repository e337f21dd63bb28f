(** Secondary indexes over tables.

    Two kinds, matching what the paper's plans need: hash indexes for
    equality probes (IDGJ, index nested-loop joins) and sorted indexes for
    ordered scans (the TopInfo-by-score group stream feeding DGJ stacks).
    An index maps a key — the values of one or more columns — to the row
    numbers holding that key. *)

type kind = Hash | Sorted

type t

(** [build ~kind ~cols rows] indexes the given rows (an array of tuples) on
    column positions [cols]. *)
val build : kind:kind -> cols:int array -> Tuple.t array -> t

(** [kind t]. *)
val kind : t -> kind

(** [probe t key] is the row numbers whose indexed columns equal [key],
    in insertion order.  Works on both kinds ([Sorted] uses binary
    search). *)
val probe : t -> Value.t array -> int list

(** [probe_count t key] is [List.length (probe t key)] without building the
    list. *)
val probe_count : t -> Value.t array -> int

(** [ordered_rows ~desc t] enumerates row numbers in key order (ascending by
    default); only valid on [Sorted] indexes.
    @raise Invalid_argument on a [Hash] index. *)
val ordered_rows : ?desc:bool -> t -> int array

(** [distinct_keys t] is the number of distinct keys present. *)
val distinct_keys : t -> int

(** [probe_bucket t key] is [(n, get)] where [n] is the number of matching
    rows and [get i] is the i-th matching row number — a zero-copy view
    used by DGJ operators so early termination skips the untouched tail of
    large buckets. *)
val probe_bucket : t -> Value.t array -> int * (int -> int)
