(** The online serving tier: evaluate a batch of topology queries
    concurrently across OCaml 5 domains — closed-loop, or open-loop with
    admission control and deadlines — through one entry point, {!exec}.

    Each query keeps its single-coordinator evaluation; the {e batch} is
    what parallelizes — one {!Topo_util.Pool} task per query, one query per
    domain at a time, every domain reading the shared engine (catalog,
    stores, topology registry, interner, data graph — frozen after the
    offline build).  Each query is evaluated by {!Engine.run_request}: a
    fresh {!Topo_sql.Iterator.Counters} scope, a private trace sink when
    tracing is requested, the optional shared {!Cache.t}, and the
    request's deadline enforced (admission-time expiry, mid-evaluation
    [Partial] truncation).

    Determinism contract: closed-mode {!exec} with [jobs = n] returns
    outcomes bit-identical to [jobs = 1] — and to a sequential
    {!Engine.run_request} loop — in input order, whether the cache is
    cold, warm, or absent.  A query that raises yields [Failed] in its
    own slot; the rest of the batch still completes, and failures are
    never memoized.  [Ticks]-deadline batches extend the contract: the
    same tick budget produces the same [Partial] prefix on every run and
    jobs value. *)

type stats = {
  jobs : int;  (** parallelism degree actually used *)
  queries : int;
  errors : int;  (** outcomes whose result is [Failed] *)
  rejected : int;  (** [Rejected] outcomes (expired deadlines, in closed loop) *)
  partials : int;  (** [Partial] outcomes (deadline tripped mid-evaluation) *)
  elapsed_s : float;  (** wall time for the whole batch *)
  throughput_qps : float option;
      (** [queries /. elapsed_s], or [None] when the batch finished under
          the clock's resolution ([elapsed_s = 0.0]) — "not measurable",
          never to be read as zero throughput *)
  domains_used : int;  (** distinct domains that served at least one query *)
  cache : Cache.totals option;
      (** cache activity attributable to this batch alone (a before/after
          {!Cache.diff}); [None] when no cache was attached *)
}

(** {1 Open-loop accounting} *)

(** An outcome with its open-loop timing.  All instants are seconds from
    the start of the run; [latency_s = finished_s -. intended_s] — the
    coordinated-omission-corrected latency, charged from the instant the
    request {e should} have arrived, so queueing delay counts against
    the server rather than vanishing from the histogram. *)
type timed = {
  timed_outcome : Request.outcome;
  intended_s : float;  (** the arrival schedule's instant for this request *)
  started_s : float;  (** when a worker picked it up (= rejection instant for overloads) *)
  finished_s : float;
  latency_s : float;
}

type open_stats = {
  open_jobs : int;  (** worker domains used *)
  offered : int;  (** every scheduled arrival; [admitted + rejected_overload] *)
  admitted : int;  (** entered the bounded queue *)
  rejected_overload : int;  (** turned away at admission: queue at [max_queue] *)
  expired : int;  (** admitted, but the deadline passed before evaluation began *)
  completed : int;  (** [Done] outcomes *)
  partial : int;  (** [Partial] outcomes (deadline tripped mid-evaluation) *)
  failed : int;  (** [Failed] outcomes — always unexpected *)
  wall_s : float;  (** run duration: last finish (or rejection) instant *)
  achieved_rate : float option;  (** answered ([completed + partial]) per second *)
}

(** Open-loop parameters.  [schedule i] is the intended arrival instant
    of the i-th request, in seconds from the start of the run, kept
    positional so {!exec}'s request list stays the single source of what
    runs. *)
type open_config = {
  max_queue : int;  (** admission-queue bound; excess is [Rejected Overloaded] *)
  deadline_s : float option;
      (** per-request wall deadline measured from the {e intended} arrival
          instant; requests already carrying a deadline keep theirs *)
  schedule : int -> float;
}

(** [open_config ?max_queue ?deadline_s ?schedule ()] with [max_queue]
    defaulting to 64 and [schedule] to "everything arrives at t = 0". *)
val open_config :
  ?max_queue:int -> ?deadline_s:float -> ?schedule:(int -> float) -> unit -> open_config

type mode =
  | Closed  (** evaluate the whole batch as fast as the pool allows *)
  | Open of open_config  (** replay an arrival schedule with admission control *)

type config = {
  pool : Topo_util.Pool.t option;
      (** closed mode only: serve on the caller's long-lived pool.  Open
          mode paces its own worker domains, and {!exec} rejects a pool
          there *)
  jobs : int option;
      (** domain count when no pool is given; capped at the machine's
          recommended count *)
  traces : bool;  (** attach a private {!Topo_obs.Trace.t} per query *)
  cache : Cache.t option;
      (** shared by all serving domains: lock-free snapshot-read hits,
          per-batch activity in [stats.cache] *)
  mode : mode;
}

(** [config ?pool ?jobs ?traces ?cache ?mode ()] with [traces] defaulting
    to false and [mode] to [Closed]. *)
val config :
  ?pool:Topo_util.Pool.t ->
  ?jobs:int ->
  ?traces:bool ->
  ?cache:Cache.t ->
  ?mode:mode ->
  unit ->
  config

(** [default] is [config ()]: closed-loop, default pool sizing, no
    traces, no cache. *)
val default : config

(** What one {!exec} call produced.  [outcomes] and [stats] are always
    populated; [timed]/[open_stats] are [Some] exactly in open mode.
    Open-mode [stats] are synthesized from the open-loop accounting:
    [rejected = rejected_overload + expired], [elapsed_s = wall_s],
    [throughput_qps = achieved_rate]. *)
type result = {
  outcomes : Request.outcome list;
  stats : stats;
  timed : timed list option;
  open_stats : open_stats option;
}

(** [exec config engine requests] evaluates the batch under [config] and
    returns outcomes in input order (open mode: in intended-arrival
    order, which is input order whenever the schedule is monotone).
    Closed mode keeps the determinism contract above — bit-identical
    outcomes for every jobs value, cold or warm cache.
    @raise Invalid_argument when [config.pool] is set with
    [config.mode = Open _]. *)
val exec : config -> Engine.t -> Request.t list -> result

(** [fingerprint outcomes] renders the batch's full observable output —
    ranked lists with scores (flagged when deadline-truncated), strategy
    choices, per-query counters, rejection kinds, exceptions — excluding
    wall-clock fields and the per-outcome cache status (which occurrence
    of a repeated query populates the cache depends on domain
    scheduling; the values served do not).  Bit-identical across jobs
    values and across cold/warm/no-cache runs, and — for [Ticks]
    deadlines — across repeated runs of the same truncated batch; the
    benchmark and CI gate compare these digests. *)
val fingerprint : Request.outcome list -> string
