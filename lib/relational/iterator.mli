(** Volcano-style physical operators, extended for Distinct Group Joins.

    Every operator implements the classic open/next/close protocol [17].
    Section 5.3 of the paper adds two properties for DGJ operators: they
    understand {e groups} of tuples (preserving group order from input to
    output) and they can skip the rest of the current group
    ([advanceToNextGroup]).  We bake both into the iterator signature:

    - [last_group ()] is the group id of the most recently returned tuple.
      Ungrouped operators report group [0] for every tuple; grouped sources
      assign increasing ids.
    - [advance_group ()] abandons any remaining tuples of the current group
      so the next [next ()] starts the following group.  On ungrouped
      operators it is a no-op.

    Operators also bump {!Counters} so tests and benchmarks can observe
    how much work early termination saves. *)

type t = {
  schema : Schema.t;
  open_ : unit -> unit;
  next : unit -> Tuple.t option;
  close : unit -> unit;
  advance_group : unit -> unit;
  last_group : unit -> int;
}

(** Work counters.  Counter cells resolve through a {e domain-local
    scope}: [with_scope] installs a private cell set on the calling
    domain, and every query runs under its own, isolating concurrent
    queries' counts from one another.  Increments outside any scope are
    dropped. *)
module Counters : sig
  (** A reading of all counters: tuples returned by any operator's
      [next], index probes performed, rows visited by sequential scans. *)
  type snapshot = { tuples : int; index_probes : int; rows_scanned : int }

  (** [with_scope f] runs [f] against a {e fresh, private} cell set
      installed on the calling domain, returning [f]'s result and the work
      it performed.  Nothing is added to the surrounding scope.  The
      previous scope is restored even when [f] raises. *)
  val with_scope : (unit -> 'a) -> 'a * snapshot

  (**/**)

  val add_tuples : int -> unit

  val add_probes : int -> unit

  val add_scanned : int -> unit

  (** [add_work ~tuples ~probes ~scanned] is the three increments with one
      scope lookup. *)
  val add_work : tuples:int -> probes:int -> scanned:int -> unit
end

(** [of_tuples schema tuples] is an ungrouped iterator over an array;
    convenient in tests. *)
val of_tuples : Schema.t -> Tuple.t array -> t

(** [to_list it] opens, drains and closes [it]. *)
val to_list : t -> Tuple.t list

(** [iter f it] opens, applies [f tuple group] to every tuple, closes. *)
val iter : (Tuple.t -> int -> unit) -> t -> unit

(** [count it] drains and counts. *)
val count : t -> int

(** [ungrouped ~schema ~open_ ~next ~close] fills in no-op group methods. *)
val ungrouped :
  schema:Schema.t -> open_:(unit -> unit) -> next:(unit -> Tuple.t option) -> close:(unit -> unit) -> t
