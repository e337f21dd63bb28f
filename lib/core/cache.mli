(** Domain-safe result caching for the serving tier.

    The cache memoizes [(method, canonical query, scheme, k)] to the
    query's full observable outcome — ranked (TID, score) list, optimizer
    strategy choice, and the isolated work counters, replayed on a hit so
    outcome fingerprints stay bit-identical between cold and warm passes.

    It uses the topology registry's snapshot-under-[Atomic.t] pattern:
    lookups are lock-free (one [Atomic.get] plus an atomic recency
    stamp), writers serialize on a mutex and publish immutable snapshots.
    Eviction is LRU by entry count against a fixed capacity.

    Invalidation is {e epoch-based}: entries are stamped with
    {!Topology.generation} as observed before their value was computed,
    and any lookup whose entry stamp differs from the current generation
    is a miss (counted as an invalidation; the stale entry is dropped).
    Online re-registration by the SQL method therefore can never cause a
    stale cached result to be served. *)

type stats = {
  hits : int;
  misses : int;  (** includes invalidation misses *)
  evictions : int;  (** LRU victims removed at capacity *)
  invalidations : int;  (** lookups that found a stale-generation entry *)
  insertions : int;
  entries : int;  (** entries currently resident *)
}

(** [plans] is always {!zero_stats}: there is no plan cache.  The field
    stays only while the repository benchmark still reads it. *)
type totals = { results : stats; plans : stats }

type t

(** [create ?capacity registry] with an entry-count capacity (default
    1024; minimum 1).  The cache is tied to [registry]: its generation is
    the invalidation epoch. *)
val create : ?capacity:int -> Topology.registry -> t

(** [stamp t] is the registry generation to compute under {e before}
    evaluating; pass it to [add_result] so a registry mutation that raced
    the evaluation invalidates the entry. *)
val stamp : t -> int

type result_payload = {
  ranked : (int * float option) list;
  strategy : Topo_sql.Optimizer.strategy option;
  counters : Topo_sql.Iterator.Counters.snapshot;
      (** the work the evaluation performed, replayed verbatim on a hit *)
}

(** [find_result t ~key] is a lock-free lookup; [None] on miss or when the
    entry's generation stamp is stale. *)
val find_result : t -> key:string -> result_payload option

(** [add_result t ~key ~stamp payload] inserts (or refreshes) an entry,
    evicting the least-recently-used entry when past capacity.  A racing
    insert of the same key and stamp is kept (the values are equal by the
    determinism contract). *)
val add_result : t -> key:string -> stamp:int -> result_payload -> unit

(** {1 Statistics} *)

val result_stats : t -> stats

val totals : t -> totals

val zero_stats : stats

val zero_totals : totals

(** [diff ~before ~after] subtracts cumulative counters (per-batch deltas);
    [entries] is taken from [after]. *)
val diff : before:totals -> after:totals -> totals

(** [hit_rate stats] is [hits / (hits + misses)], 0 when nothing was looked
    up. *)
val hit_rate : stats -> float
