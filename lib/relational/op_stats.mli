(** Per-operator runtime statistics for EXPLAIN ANALYZE.

    [wrap] is a stats-collecting sibling of {!Iterator_check.wrap}: it
    interposes on the open/next/close/advance_group protocol of one
    operator, recording call counts, rows produced and cumulative wall
    time.  {!Physical.lower_instrumented} wraps every node of a plan and
    returns the per-node records as a tree mirroring the plan, which the
    observability layer ([Topo_obs.Explain_analyze]) renders next to the
    optimizer's estimates.

    Recorded wall time is {e inclusive}: an operator's clock runs while its
    children execute inside its [next], exactly like the "actual time" of a
    DBMS EXPLAIN ANALYZE.  Exclusive (self) time is derived at reporting
    time by subtracting the children's totals. *)

type t = {
  label : string;  (** operator label, e.g. ["HashJoin"] or ["SeqScan Protein"] *)
  mutable opens : int;  (** [open_] calls *)
  mutable nexts : int;  (** [next] calls, including the final [None] *)
  mutable closes : int;  (** [close] calls *)
  mutable advances : int;  (** [advance_group] calls *)
  mutable rows : int;  (** tuples produced ([Some _] results of [next]) *)
  mutable time_s : float;  (** cumulative inclusive wall time, seconds *)
}

(** Stats tree mirroring a physical plan: one node per operator, children
    in {!Physical.children} order. *)
type annotated = { stats : t; children : annotated list }

(** [create ~label] is a zeroed record. *)
val create : label:string -> t

(** [wrap stats it] forwards every protocol call to [it], accounting it in
    [stats].  Exceptions propagate (their elapsed time is dropped). *)
val wrap : t -> Iterator.t -> Iterator.t

(** [iter f a] applies [f] to every node, preorder. *)
val iter : (t -> unit) -> annotated -> unit
