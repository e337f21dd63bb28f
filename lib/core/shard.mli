(** One shard of the distributed serving tier: a socket server that
    evaluates wire-protocol request batches against a (usually
    snapshot-sliced) engine.

    A shard server speaks the {!Wire} frame protocol over Unix-domain or
    TCP sockets.  On accept it sends a [hello] frame — the shard index
    and the engine's {!Engine.fingerprint} — so a router can refuse to
    scatter over the wrong slice.  It then answers [batch-request]
    frames with [batch-outcome] frames, evaluating through
    {!Serve.exec} on a shared pool so the reply bytes are the ones
    single-process serving would produce.

    Admission is shed-don't-buffer: a batch that would push the number
    of in-flight requests past [max_inflight] is answered immediately
    with [Rejected Overloaded] outcomes instead of queueing.  Each
    accepted connection is handled by its own domain; evaluation
    parallelism is bounded by the shared pool, not the connection
    count. *)

type t

(** [start ?serve ?max_inflight ?read_timeout_s ?write_timeout_s ~shard
    addr engine] binds [addr], spawns the accept-loop domain, and
    returns immediately.

    [serve] configures evaluation (jobs, cache, traces); its [mode] is
    forced to [Closed] — open-loop pacing belongs to the client side of
    the socket — and when it names no [pool] the server creates one it
    owns (shut down by {!stop}).  [max_inflight] (default 256) bounds
    concurrently evaluating requests across all connections.
    [read_timeout_s] defaults to none so idle persistent router
    connections stay up; [write_timeout_s] (default 30) bounds how long
    a stuck client can wedge a reply.

    @raise Wire.Error if [max_inflight <= 0].
    @raise Unix.Unix_error if the address cannot be bound. *)
val start :
  ?serve:Serve.config ->
  ?max_inflight:int ->
  ?read_timeout_s:float ->
  ?write_timeout_s:float ->
  shard:int ->
  Wire.addr ->
  Engine.t ->
  t

(** [stop t] shuts the server down: closes the listening socket and
    every live connection (unblocking their domains), joins them all,
    shuts down an owned pool, and removes a Unix-domain socket file.
    Idempotent. *)
val stop : t -> unit

(** [wait t] blocks until the accept loop exits — i.e. until {!stop} is
    called from another domain or a signal handler.  The blocking body
    of the [toposearch shard] command. *)
val wait : t -> unit
