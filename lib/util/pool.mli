(** A dependency-free domain pool (stdlib [Domain] + [Mutex]/[Condition])
    for the parallel offline build and the online serving tier.

    The pool owns [jobs - 1] spawned worker domains; the calling domain
    participates in every batch, so [jobs] domains compute in total and a
    [jobs = 1] pool spawns nothing and runs inline.  Results merge in input
    order, making [jobs = n] output identical to [jobs = 1] output.

    Concurrency contract: one batch runs at a time per pool, but
    submissions may come from any number of coordinator domains — a
    submission that finds a batch in flight blocks until the pool is idle
    and then runs, so batches queue rather than fail.  Submitting from
    inside a task (nesting) runs the nested batch inline and sequentially
    — never a deadlock.  Tasks must not write shared mutable state unless
    it is [Atomic] or locked; the intended pattern is tasks that return
    private results merged by the coordinator. *)

type t

(** [default_jobs ()] is [Domain.recommended_domain_count ()] capped at 8. *)
val default_jobs : unit -> int

(** [create ?jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults to
    {!default_jobs}; values < 1 are clamped to 1). *)
val create : ?jobs:int -> unit -> t

(** [jobs pool] is the parallelism degree (spawned workers + caller). *)
val jobs : t -> int

(** [shutdown pool] stops and joins the workers.  Idempotent. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] runs [f] over a fresh pool and always shuts it
    down, even when [f] raises. *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a

(** [parallel_map ?chunk pool input ~f] applies [f] to every element,
    returning results in input order.  Tasks are claimed in contiguous
    runs of [chunk] (default 1) — raise it when per-element work is tiny.
    If any task raises, the whole batch still drains and the exception of
    the {e smallest} failing index is re-raised (deterministic).  On a
    1-job pool, from inside another task, or on inputs of length <= 1 it
    degrades to a plain sequential [Array.map].  When another domain's
    batch is in flight, the call blocks until that batch drains, then
    runs. *)
val parallel_map : ?chunk:int -> t -> 'a array -> f:('a -> 'b) -> 'b array
