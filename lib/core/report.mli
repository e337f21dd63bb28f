(** Result presentation: the Figure 5 experience.

    The paper's interface shows the schema-level topology list first, "followed
    by instance level tuples of concrete examples (biological systems) of
    each topology" (Section 2.2).  This module renders a query result that
    way as plain text: each topology with its score/frequency, structure,
    and a bounded page of instance pairs with entity descriptions and
    witness subgraphs. *)

type options = {
  max_instances : int;  (** instance pairs listed per topology (default 3) *)
  show_witness : bool;  (** print the witness subgraph per instance (default true) *)
}

(** [render engine query result ?options ()] renders an {!Request.result}
    produced for [query].  Topologies keep the result's order (rank order
    for top-k methods).
    @raise Invalid_argument when [query]'s pair was not built. *)
val render : Engine.t -> Query.t -> Request.result -> ?options:options -> unit -> string

(** [print engine query result ?options ()] renders to stdout. *)
val print : Engine.t -> Query.t -> Request.result -> ?options:options -> unit -> unit
