(** Domain-safe result caching for the serving tier.

    The cache memoizes [(method, canonical query, scheme, k)] to the
    query's full observable outcome — ranked (TID, score) list, optimizer
    strategy choice, and the isolated work counters, replayed on a hit so
    outcome fingerprints stay bit-identical between cold and warm passes.

    It uses the topology registry's snapshot-under-[Atomic.t] pattern:
    lookups are lock-free (one [Atomic.get] plus an atomic recency
    stamp), writers serialize on a mutex and publish immutable snapshots.
    Eviction is exact LRU by entry count against a fixed capacity: the
    writer pops the least-recently-used entry from a min-heap of
    (tick, key), pushing back any item whose entry was hit since, in
    O(log n) amortized per insert past capacity.

    Nothing invalidates an entry: the derived tables and the topology
    registry an answer depends on are frozen once the engine is built or
    loaded, and serving never registers a topology. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** LRU victims removed at capacity *)
  invalidations : int;
      (** always 0: entries are never invalidated.  The field stays only
          while the repository benchmark still builds this record. *)
  insertions : int;
  entries : int;  (** entries currently resident *)
}

(** [plans] is always all zeros: there is no plan cache.  The field
    stays only while the repository benchmark still reads it. *)
type totals = { results : stats; plans : stats }

type t

(** [create ?capacity ()] with an entry-count capacity (default 1024;
    minimum 1). *)
val create : ?capacity:int -> unit -> t

type result_payload = {
  ranked : (int * float option) list;
  strategy : Topo_sql.Optimizer.strategy option;
  counters : Topo_sql.Iterator.Counters.snapshot;
      (** the work the evaluation performed, replayed verbatim on a hit *)
}

(** [find_result t ~key] is a lock-free lookup; [None] on a miss. *)
val find_result : t -> key:string -> result_payload option

(** [add_result t ~key payload] inserts an entry, evicting the
    least-recently-used entry when past capacity.  When [key] is already
    present (a racing insert), the existing entry is kept: by the
    determinism contract the values are equal. *)
val add_result : t -> key:string -> result_payload -> unit

(** {1 Statistics} *)

val totals : t -> totals

val zero_totals : totals

(** [diff ~before ~after] subtracts cumulative counters (per-batch deltas);
    [entries] is taken from [after]. *)
val diff : before:totals -> after:totals -> totals

(** [hit_rate stats] is [hits / (hits + misses)], 0 when nothing was looked
    up. *)
val hit_rate : stats -> float
