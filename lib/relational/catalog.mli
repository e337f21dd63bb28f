(** The database catalog: the named tables of one database instance.

    Both the synthetic Biozon instance and the topology engine's derived
    tables (AllTops, LeftTops, ExcpTops, TopInfo) live in a catalog, so the
    SQL front end and the operators can address all of them uniformly. *)

type t

(** [create ()] is an empty catalog. *)
val create : unit -> t

(** [add t table] registers a table.
    @raise Invalid_argument if the name is taken. *)
val add : t -> Table.t -> unit

(** [create_table t ~name ~schema ?primary_key ()] creates, registers and
    returns a table. *)
val create_table : t -> name:string -> schema:Schema.t -> ?primary_key:string -> unit -> Table.t

(** [find t name].  @raise Not_found when absent. *)
val find : t -> string -> Table.t

(** [find_opt t name]. *)
val find_opt : t -> string -> Table.t option

(** [mem t name]. *)
val mem : t -> string -> bool

(** [remove t name] drops a table if present (used when re-running pruning
    with a different threshold). *)
val remove : t -> string -> unit

(** [tables t] in registration order. *)
val tables : t -> Table.t list

(** [stats t table_name] is the cached statistics for a table, computed on
    first request and invalidated when row counts change.  Snapshots do
    not save statistics, so a built catalog and a loaded one both get
    them only this way. *)
val stats : t -> string -> Table_stats.t
