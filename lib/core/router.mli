(** The scatter-gather router: evaluates request batches over a fleet of
    {!Shard} servers and merges the outcomes back into input order.

    Routing follows the manifest's pair -> shard map (the
    orientation-normalized {!Snapshot.shard_of_pair} the snapshot writer
    used), so every request lands on the one shard whose slice holds its
    pair's derived topology tables.  A request whose pair the manifest
    does not hold gets the router's own [Failed (Unknown_pair _)]
    outcome, the one the unsliced engine gives, without a hop.
    Connections are persistent, dialed lazily, and verified against the
    manifest: a shard answering with the wrong index or a fingerprint
    other than the one recorded at [build --shards] time is refused.

    Failure semantics: a shard that is down, hangs past the socket
    timeout, or dies mid-batch is redialed and its sub-batch replayed
    once (safe — shard evaluation is read-only); if that also fails,
    its requests yield [Failed (Shard_unreachable _)] outcomes
    while the rest of the batch completes with bytes identical to
    single-process serving. *)

type t

(** [create ~manifest ~addrs ?timeout_s ?retries ?backoff_s ()] — one
    address per shard, indexed by shard number.  [timeout_s] (default
    60) bounds every socket read and write — it must cover a whole
    sub-batch's evaluation, not one query; [retries] (default 3) and
    [backoff_s] (default 0.05, doubling) govern connect-time retry while
    a shard is still binding.  Connections are dialed on first use.

    @raise Wire.Error when [addrs] and the manifest disagree on the
    shard count. *)
val create :
  manifest:Snapshot.manifest ->
  addrs:Wire.addr array ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  unit ->
  t

(** [exec t requests] scatters the batch over the shards and returns
    outcomes in input order.  With every shard healthy, the outcome list
    satisfies [Serve.fingerprint] identity with a single-process
    [Serve.exec ~jobs:1] over the unsliced engine — the distributed
    tier's correctness gate.  Never raises for a down shard; see the
    failure semantics above.

    @raise Wire.Error only for router-side invariant violations (e.g. a
    shard replying with the wrong outcome count after a successful
    retry). *)
val exec : t -> Request.t list -> Request.outcome list

(** [close t] closes all live shard connections.  The router can be used
    again afterwards — connections redial on demand. *)
val close : t -> unit
