(** The Topology Query Engine facade (Figure 10).

    [build] runs the offline phase over a Biozon-schema catalog: it
    materializes the instance graph, runs Topology Computation for each
    requested entity-set pair, prunes with the given threshold, and
    registers the derived tables.  [run_request] evaluates one query online
    with any of the nine methods; {!Serve.exec} evaluates a batch. *)

type t = { ctx : Context.t; build_stats : (string * string * Compute.stats) list }

(** The nine-method enum, owned by {!Methods} and re-exported here with
    its constructors, so [Engine.Fast_top_k_opt] and
    [Methods.Fast_top_k_opt] are the same value. *)
type method_ = Methods.method_ =
  | Sql
  | Full_top
  | Fast_top
  | Full_top_k
  | Fast_top_k
  | Full_top_k_et
  | Fast_top_k_et
  | Full_top_k_opt
  | Fast_top_k_opt

(** Every method, in the order of Table 2's rows. *)
val all_methods : method_ list

(** [method_name m] is the paper's name, e.g. ["Fast-Top-k-ET"]. *)
val method_name : method_ -> string

(** [build catalog ~pairs ?l ?caps ?pruning_threshold ?exclude_weak ()]
    runs the offline phase.  [pairs] lists the entity-set pairs to
    precompute (e.g. [("Protein", "DNA")]).  [l] defaults to 3 (the paper's
    main setting), [pruning_threshold] to 50 (scaled from the paper's 2M
    for the synthetic instance size).  [exclude_weak] (default false)
    drops weak schema paths from the sweep — the Section 6.2.3 remedy —
    and [min_reliability] is the graded alternative (keep only schema
    paths with {!Weak.path_reliability} at or above the threshold).

    [jobs] sets the parallelism of the offline sweep (default
    {!Topo_util.Pool.default_jobs}: [Domain.recommended_domain_count]
    capped at 8).  The build fans instance enumeration and the union
    product out across a domain pool but keeps every shared-state write on
    the calling domain; the produced derived tables, registry and TIDs are
    bit-identical for every [jobs] value. *)
val build :
  Topo_sql.Catalog.t ->
  pairs:(string * string) list ->
  ?l:int ->
  ?caps:Compute.caps ->
  ?pruning_threshold:int ->
  ?exclude_weak:bool ->
  ?min_reliability:float ->
  ?jobs:int ->
  unit ->
  t

(** [cache ?capacity t] is a fresh {!Cache.t} for this engine (capacity
    as in {!Cache.create}).  Share one cache per engine; it is safe for
    concurrent domains. *)
val cache : ?capacity:int -> t -> Cache.t

(** [run_request t ?cache ?verify_plans ?traces request] is the
    single-query entry point: it evaluates [request] under a fresh private
    counter scope and returns the full {!Request.outcome} — the four-way
    {!Request.outcome_result}, isolated counters, serving domain,
    optional private trace, and cache status.  A raised exception becomes
    a [Failed] outcome; {!Request.get_done} turns it back into a raise
    for sequential callers.

    Deadlines: a request whose {!Budget.deadline} has already passed
    short-circuits to [Rejected Expired] {e before} the cache lookup and
    the counter scope — a rejection is observably free.  Otherwise the
    deadline becomes a {!Budget.t} threaded into the top-k methods'
    early-termination loops; if it trips mid-evaluation the outcome is
    [Partial] with the deterministic ranked prefix.

    With [?cache], the cache is consulted first: a hit returns the
    memoized ranked list, strategy, and the {e stored} counter snapshot
    (replayed so cold and warm passes fingerprint identically, with a
    ["cache_hit"] span when tracing) — valid under any deadline, since a
    hit costs no evaluation; a miss evaluates and memoizes the outcome.
    Only
    [Done] outcomes are memoized — failures re-raise deterministically
    and partials are deadline-shaped prefixes, not answers.
    [verify_plans] (default false) checks every physical plan the method
    builds with {!Topo_sql.Plan_check} before executing it — a malformed
    plan fails the request with {!Topo_sql.Plan_check.Plan_error} — and
    runs -ET iterator trees under the {!Topo_sql.Iterator_check}
    protocol checker; it bypasses the cache entirely, pricing and checking
    every plan fresh (a hit would skip the verification the caller asked
    for).  [traces] (default false)
    attaches a private {!Topo_obs.Trace.t} whose root span is named
    after the method and tagged with scheme and k. *)
val run_request :
  t -> ?cache:Cache.t -> ?verify_plans:bool -> ?traces:bool -> Request.t -> Request.outcome

(** [fingerprint t] digests the full observable output of the offline
    phase: every registered topology's (TID, canonical key,
    decompositions) plus every derived
    [AllTops_*/LeftTops_*/ExcpTops_*/TopInfo_*] table's rows in insertion
    order, as one hex digest.  Builds with different [jobs] values
    fingerprint identically; {!Snapshot.save} records it and
    {!Snapshot.load} refuses a snapshot whose reconstructed engine does
    not reproduce it. *)
val fingerprint : t -> string

(** [topology t tid].  @raise Not_found for unknown TIDs. *)
val topology : t -> int -> Topology.t

(** [describe t tid] pretty-prints a topology. *)
val describe : t -> int -> string

(** [store t ~t1 ~t2] exposes a pair's store (either orientation).
    @raise Not_found when the pair was not built. *)
val store : t -> t1:string -> t2:string -> Store.t
