(** Catalog persistence.

    Saves a catalog as one text file per table in a directory ("bulk
    load" format, matching the paper's update model of periodic bulk
    refreshes).  The format is line-oriented:

    {v
    table <name>
    schema <col>:<ty>,<col>:<ty>,...
    pk <col> | pk -
    <tab-separated values, strings escaped (\t \n \\ and \N for NULL)>
    v}

    Floats are written in hexadecimal float notation so round-trips are
    exact. *)

(** [save catalog ~dir] writes every table to [dir]/<table>.tbl, creating
    [dir] if needed.  @raise Sys_error on I/O failure. *)
val save : Catalog.t -> dir:string -> unit

(** [load ~dir] reads every [*.tbl] file in [dir] into a fresh catalog.
    @raise Failure on a malformed file. *)
val load : dir:string -> Catalog.t
