(** Table access operators: sequential scan, index scan, ordered scan, and
    the grouped ordered scan that feeds DGJ stacks. *)

(** [seq ?pred table] scans all rows, applying the optional residual
    predicate.  Ungrouped. *)
val seq : ?pred:Expr.t -> Table.t -> Iterator.t

(** [index_probe ?pred table ~cols ~key] returns rows whose indexed columns
    equal [key] (hash index built/reused on demand).  Ungrouped. *)
val index_probe : ?pred:Expr.t -> Table.t -> cols:string list -> key:Value.t array -> Iterator.t

(** [ordered_rownos ?desc table ~cols] is the row numbers in the order of
    the named columns (sorted index built/reused on demand) — the order
    {!ordered} scans in. *)
val ordered_rownos : ?desc:bool -> Table.t -> cols:string list -> int array

(** [ordered ?pred ?desc table ~cols] scans rows in the order of the named
    columns using a sorted index.  Ungrouped. *)
val ordered : ?pred:Expr.t -> ?desc:bool -> Table.t -> cols:string list -> Iterator.t

(** [grouped_by_tuple it] wraps an iterator so every returned tuple forms its
    own group with increasing ids — this is the "idxScan TopoInfo (score
    order)" source at the bottom of Figure 15's plans, where each topology
    is one group.  [advance_group] is a no-op because a group is exhausted
    the moment its tuple is returned. *)
val grouped_by_tuple : Iterator.t -> Iterator.t
