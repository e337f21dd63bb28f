(** SQL facade: parse, plan and run queries against a catalog.

    All entry points verify the bound plan with {!Plan_check} before use
    ([?check] defaults to [true]; pass [~check:false] to skip), so a binder
    bug surfaces as a structured {!Plan_check.Plan_error} rather than a
    wrong answer. *)

(** [query catalog text] parses, plans and executes; returns the output
    schema and result rows.
    @raise Sql_parser.Parse_error, Sql_lexer.Lex_error or
    Sql_binder.Bind_error on bad input, Plan_check.Plan_error when the
    bound plan fails verification. *)
val query : ?check:bool -> Catalog.t -> string -> Schema.t * Tuple.t list

(** [explain catalog text] is the physical plan chosen for the query,
    rendered as text. *)
val explain : ?check:bool -> Catalog.t -> string -> string

(** [to_plan catalog text] parses and plans without executing. *)
val to_plan : ?check:bool -> Catalog.t -> string -> Physical.t

(** [render catalog text] runs the query and pretty-prints the result table
    (header = output column names). *)
val render : ?check:bool -> Catalog.t -> string -> string

(** [lint catalog text] parses, plans and returns every verifier violation
    without executing; the empty list means the plan is clean.  Backs the
    [toposearch check] subcommand. *)
val lint : Catalog.t -> string -> Plan_check.violation list
