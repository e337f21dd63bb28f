(** The shared request/outcome vocabulary of the query API.

    A {!t} is one unit of online work — (method, query, scheme, k) plus
    an optional {!Budget.deadline} — and an {!outcome} is everything
    observable about evaluating it.  {!Engine.run_request} evaluates one
    request and {!Serve.exec} a batch; [toposearch] and the benchmarks
    speak these types too.

    How a request can end ({!outcome_result}):
    - [Done r] — evaluated to completion.
    - [Partial r] — the deadline budget tripped inside a top-k method's
      early-termination loop; [r.ranked] is the deterministic prefix
      produced before the trip.
    - [Rejected Overloaded] — the open-loop admission queue was at its
      depth limit; the request was turned away without evaluation.
    - [Rejected Expired] — the deadline had already passed at admission;
      short-circuited before evaluation, cache, or counter activity.
    - [Failed f] — the request could not be answered; {!failure} says
      why.

    Only [Done] results are memoized. *)

type t = {
  method_ : Methods.method_;
  query : Query.t;
  scheme : Ranking.scheme;
  k : int;
  deadline : Budget.deadline option;  (** bound on evaluation; [None] = run to completion *)
}

(** [make ?scheme ?k ?deadline method_ query] with [scheme] defaulting to
    [Freq], [k] to 10 and [deadline] to none. *)
val make :
  ?scheme:Ranking.scheme -> ?k:int -> ?deadline:Budget.deadline -> Methods.method_ -> Query.t -> t

type result = {
  ranked : (int * float option) list;  (** TIDs with scores for top-k methods *)
  elapsed_s : float;
  method_ : Methods.method_;
  strategy : Topo_sql.Optimizer.strategy option;  (** what an -Opt method chose *)
}

type rejection =
  | Overloaded  (** the bounded admission queue was full *)
  | Expired  (** the deadline had already passed at admission *)

val rejection_name : rejection -> string

(** Why a request could not be answered. *)
type failure =
  | Unknown_pair of { t1 : string; t2 : string; held : (string * string) list }
      (** no store for [t1]-[t2] in either orientation; [held] names the
          built pairs, in build orientation *)
  | Shard_unreachable of { shard : int; reason : string }  (** even after a retry *)
  | Internal of string  (** evaluation raised; [Printexc.to_string] of it *)

(** [unknown_pair ~t1 ~t2 held] is [Unknown_pair] with [held] sorted, so
    every producer names the held pairs in the same order. *)
val unknown_pair : t1:string -> t2:string -> (string * string) list -> failure

(** [failure_to_string f] renders a failure for people and for
    {!Serve.fingerprint}: ["no T1-T2 store (it holds A-B, ...)"],
    ["shard K unreachable: REASON"], or the internal message. *)
val failure_to_string : failure -> string

type outcome_result =
  | Done of result
  | Partial of result
  | Rejected of rejection
  | Failed of failure

(** ["done"], ["partial"], ["rejected-overloaded"], ["rejected-expired"],
    ["failed"]. *)
val outcome_result_name : outcome_result -> string

(** The ranked answer, full or partial — [None] for rejections and
    failures. *)
val answered : outcome_result -> result option

type cache_status =
  | Hit  (** answered from the result cache, stored counters replayed *)
  | Miss  (** evaluated; a [Done] outcome was inserted into the cache *)
  | Uncached  (** no cache consulted (none attached, verification on, or rejected) *)

type outcome = {
  request : t;
  result : outcome_result;
  counters : Topo_sql.Iterator.Counters.snapshot;
      (** operator work performed by this query alone; on a cache hit, the
          stored snapshot of the original evaluation, replayed so cold and
          warm passes fingerprint identically; all-zero for rejections *)
  served_by : int;  (** id of the domain that evaluated (or rejected) the query *)
  trace : Topo_obs.Trace.t option;  (** the query's private span tree, when requested *)
  cache : cache_status;
}

(** [unevaluated ?trace ?served_by result req] is the outcome of a
    request that never reached evaluation (rejected at admission, or
    failed before any engine saw it): all-zero counters, no cache
    traffic.  [served_by] defaults to the calling domain's id. *)
val unevaluated :
  ?trace:Topo_obs.Trace.t -> ?served_by:int -> outcome_result -> t -> outcome

(** [get_done o] is the answer of a [Done] outcome, for sequential
    callers that treat anything else as an error.
    @raise Failure with {!failure_to_string}'s text on a [Failed]
    outcome.
    @raise Invalid_argument on a [Partial] or [Rejected] outcome. *)
val get_done : outcome -> result

(** [key r] is the canonical result-cache key.  Orientation is normalized
    (the two endpoint renderings are sorted when the entity sets differ —
    evaluation aligns to the stored pair, so both phrasings answer
    identically), and scheme/k are omitted for the three non-top-k methods
    that ignore them.  The deadline is deliberately excluded: it bounds
    evaluation time, not the full answer, so a cached [Done] result is
    valid under any deadline. *)
val key : t -> string

(** [to_string r] for display. *)
val to_string : t -> string

(** [of_workload_line catalog ~t1 ~t2 line] parses one line of a workload
    file: [METHOD[; scheme[; k[; kw1[; kw2]]]]], a query between [t1] and
    [t2].  Empty fields take defaults (Freq, 10, no keyword) and [#]
    starts a comment.  Keywords constrain the endpoint's [desc] column.
    [`Malformed why] names the bad field: an unknown method or scheme, or
    a k that is not an integer in [1, Wire.max_u32]. *)
val of_workload_line :
  Topo_sql.Catalog.t ->
  t1:string ->
  t2:string ->
  string ->
  [ `Blank | `Request of t | `Malformed of string ]

(** {1 Wire codec}

    Requests and outcomes cross process boundaries (router ↔ shard
    server) as {!Wire} frames.  The payload codecs live here, each one
    {!Wire.codec} value holding its writer and its reader, beside
    {!key}, so the canonical key, the cache key and the wire form are
    documented and maintained at one site.  Note the asymmetry with
    {!key}: the deadline is {e excluded} from the key (it bounds
    evaluation time, not the answer) but {e included} on the wire (the
    evaluating shard must enforce it).

    Decoding an encoded outcome gives it back structurally, with one
    documented exception: the trace is not wire-encoded (a decoded
    outcome has [trace = None]; fingerprints ignore traces). *)

(** The writer and reader of the request codec and of the outcome
    codec. *)

val write_payload : Buffer.t -> t -> unit

val read_payload : Wire.reader -> t

val write_outcome_payload : Buffer.t -> outcome -> unit

val read_outcome_payload : Wire.reader -> outcome

(** {2 Batches}

    The router and a shard exchange batches only: a
    {!Wire.kind_batch_request} frame whose payload is a u32 count and
    that many request payloads, answered by a {!Wire.kind_batch_outcome}
    frame carrying the outcomes in request order. *)

(** [batch_payload reqs] is the payload of a batch-request frame. *)
val batch_payload : t list -> string

(** [read_batch (kind, payload)] decodes a frame as {!Wire.recv} or
    {!Wire.decode_frame} return it.
    @raise Wire.Error on a frame of another kind or any codec violation. *)
val read_batch : int * string -> t list

(** [outcome_batch_payload os] is the payload of a batch-outcome frame. *)
val outcome_batch_payload : outcome list -> string

(** [read_outcome_batch ?expect frame] decodes a batch-outcome frame.
    @raise Wire.Error on a frame of another kind, a batch of other than
    [expect] outcomes (when given), or any codec violation. *)
val read_outcome_batch : ?expect:int -> int * string -> outcome list
