(* The online serving tier: batch-evaluate topology queries concurrently
   across OCaml 5 domains, closed-loop or open-loop, through one entry
   point, [exec].

   Each query keeps its single-coordinator evaluation (the paper's online
   phase is inherently one plan per query); what parallelizes is the
   *batch* — one pool task per query, one query per domain at a time,
   every domain reading the shared engine (catalog, stores, topology
   registry, interner, data graph — all frozen after the offline build).
   Evaluation itself is [Engine.run_request], which isolates each query
   in a fresh [Iterator.Counters] scope, attaches a private [Trace.t] on
   demand, consults the optional shared [Cache.t], and enforces the
   request's deadline (admission-time expiry, mid-evaluation [Partial]
   truncation).

   The cache is per engine and shared across the serving domains: lookups
   are lock-free snapshot reads and inserts serialize on the cache's own
   mutex.  No entry goes stale, because serving never writes to the
   engine: even the SQL method recomputes pair topologies without
   registering them.  Because a hit replays the stored outcome of a
   deterministic evaluation — ranked list, strategy, counters — caching
   does not perturb the determinism contract:

   closed-mode [exec] with [jobs = n] returns outcomes bit-identical to
   [jobs = 1] (and to a plain sequential [Engine.run_request] loop), in
   input order, whether the cache is cold, warm, or absent.  A query that
   raises yields [Failed] in its own slot and leaves the rest of the
   batch untouched; failures are never memoized.

   Open mode is the open-loop workload ("millions of users"): requests
   arrive at externally-dictated instants, a bounded admission queue
   turns the excess away with a fast [Rejected Overloaded] outcome
   instead of letting the queue (and every queued request's latency)
   grow without bound, and per-request latency is measured from the
   *intended* arrival instant — the coordinated-omission correction: a
   request delayed in the queue is charged its waiting time, so a
   stalled server cannot hide behind requests it never got around to
   admitting. *)

module Pool = Topo_util.Pool
module Counters = Topo_sql.Iterator.Counters

type stats = {
  jobs : int;
  queries : int;
  errors : int;  (* Failed outcomes only *)
  rejected : int;  (* Rejected outcomes (expired deadlines in closed loop) *)
  partials : int;  (* Partial outcomes (deadline tripped mid-evaluation) *)
  elapsed_s : float;
  throughput_qps : float option;  (* None when elapsed is below clock resolution *)
  domains_used : int;
  cache : Cache.totals option;  (* this batch's cache activity, when caching *)
}

type timed = {
  timed_outcome : Request.outcome;
  intended_s : float;
  started_s : float;
  finished_s : float;
  latency_s : float;
}

type open_stats = {
  open_jobs : int;
  offered : int;
  admitted : int;
  rejected_overload : int;
  expired : int;
  completed : int;
  partial : int;
  failed : int;
  wall_s : float;
  achieved_rate : float option;
}

type open_config = {
  max_queue : int;
  deadline_s : float option;
  schedule : int -> float;
}

let open_config ?(max_queue = 64) ?deadline_s ?(schedule = fun _ -> 0.0) () =
  { max_queue; deadline_s; schedule }

type mode = Closed | Open of open_config

type config = {
  pool : Pool.t option;
  jobs : int option;
  traces : bool;
  cache : Cache.t option;
  mode : mode;
}

let config ?pool ?jobs ?(traces = false) ?cache ?(mode = Closed) () =
  { pool; jobs; traces; cache; mode }

let default = config ()

type result = {
  outcomes : Request.outcome list;
  stats : stats;
  timed : timed list option;
  open_stats : open_stats option;
}

let evaluate cfg engine req = Engine.run_request engine ?cache:cfg.cache ~traces:cfg.traces req

let count p outcomes =
  List.length (List.filter (fun (o : Request.outcome) -> p o.Request.result) outcomes)

let domains_used outcomes =
  List.length (List.sort_uniq compare (List.map (fun (o : Request.outcome) -> o.Request.served_by) outcomes))

let cache_delta cfg before =
  match (cfg.cache, before) with
  | Some c, Some b -> Some (Cache.diff ~before:b ~after:(Cache.totals c))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Closed-loop serving                                                 *)

let serve_on pool cfg engine requests =
  let input = Array.of_list requests in
  let before = Option.map Cache.totals cfg.cache in
  let t0 = Unix.gettimeofday () in
  let outcomes = Array.to_list (Pool.parallel_map pool input ~f:(evaluate cfg engine)) in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let queries = List.length outcomes in
  let stats =
    {
      jobs = Pool.jobs pool;
      queries;
      errors = count (function Request.Failed _ -> true | _ -> false) outcomes;
      rejected = count (function Request.Rejected _ -> true | _ -> false) outcomes;
      partials = count (function Request.Partial _ -> true | _ -> false) outcomes;
      elapsed_s;
      (* A sub-resolution batch (warm cache, coarse clock) has no
         measurable throughput; reporting 0.0 would read as a collapse. *)
      throughput_qps = (if elapsed_s > 0.0 then Some (float_of_int queries /. elapsed_s) else None);
      domains_used = domains_used outcomes;
      cache = cache_delta cfg before;
    }
  in
  { outcomes; stats; timed = None; open_stats = None }

let exec_closed cfg engine requests =
  match cfg.pool with
  | Some pool -> serve_on pool cfg engine requests
  | None ->
      (* Never oversubscribe: domains beyond the hardware's recommended
         count only add cross-domain GC synchronization on a serving
         workload.  Results are jobs-invariant anyway; callers who really
         want more domains than cores (stress tests) can pass a pool.
         This is the only cap — [Pool.default_jobs]'s additional clamp to 8
         applies just when [jobs] is omitted entirely. *)
      let jobs = Option.map (fun j -> max 1 (min j (Domain.recommended_domain_count ()))) cfg.jobs in
      Pool.with_pool ?jobs (fun pool -> serve_on pool cfg engine requests)

(* ------------------------------------------------------------------ *)
(* Open-loop serving                                                   *)

let with_lock m f = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let exec_open cfg oc engine requests =
  let jobs =
    let recommended = Domain.recommended_domain_count () in
    max 1 (min (Option.value cfg.jobs ~default:recommended) recommended)
  in
  let before = Option.map Cache.totals cfg.cache in
  let arrivals =
    List.mapi (fun i req -> (oc.schedule i, req)) requests
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    |> Array.of_list
  in
  let n = Array.length arrivals in
  let slots : timed option array = Array.make n None in
  let lock = Mutex.create () in
  let work = Condition.create () in
  let pending : (int * Request.t) Queue.t = Queue.create () in
  let closed = ref false in
  let t0 = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. t0 in
  (* Stamp the configured per-request deadline, measured from the
     request's intended arrival instant (not its admission instant): a
     request that waited in the queue has already spent part of its
     deadline waiting. *)
  let stamp at (req : Request.t) =
    match (req.Request.deadline, oc.deadline_s) with
    | None, Some d -> { req with Request.deadline = Some (Budget.Wall (t0 +. at +. d)) }
    | _ -> req
  in
  let record idx outcome ~started ~finished =
    let intended = fst arrivals.(idx) in
    slots.(idx) <-
      Some
        {
          timed_outcome = outcome;
          intended_s = intended;
          started_s = started;
          finished_s = finished;
          (* Coordinated-omission correction: latency is charged from the
             intended arrival, so queueing delay (and rejection delay)
             counts against the server. *)
          latency_s = finished -. intended;
        }
  in
  let worker () =
    let rec loop () =
      let job =
        with_lock lock (fun () ->
            while Queue.is_empty pending && not !closed do
              Condition.wait work lock
            done;
            if Queue.is_empty pending then None else Some (Queue.pop pending))
      in
      match job with
      | None -> ()
      | Some (idx, req) ->
          let started = now () in
          let o = evaluate cfg engine req in
          record idx o ~started ~finished:(now ());
          loop ()
    in
    loop ()
  in
  let workers = Array.init jobs (fun _ -> Domain.spawn worker) in
  (* The coordinator paces admissions at the arrival schedule.  Each slot
     is written exactly once — here for overload rejections, by exactly
     one worker otherwise — and Domain.join publishes the workers'
     writes before aggregation reads them. *)
  Array.iteri
    (fun idx (at, req) ->
      let wait = at -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      let admitted =
        with_lock lock (fun () ->
            if Queue.length pending >= oc.max_queue then false
            else begin
              Queue.add (idx, stamp at req) pending;
              Condition.signal work;
              true
            end)
      in
      if not admitted then begin
        let t = now () in
        record idx (Request.unevaluated (Request.Rejected Request.Overloaded) req) ~started:t ~finished:t
      end)
    arrivals;
  with_lock lock (fun () ->
      closed := true;
      Condition.broadcast work);
  Array.iter Domain.join workers;
  let wall_s = now () in
  let timed =
    Array.to_list
      (Array.mapi
         (fun idx slot ->
           match slot with
           | Some t -> t
           | None ->
               (* Unreachable: every index is either rejected by the
                  coordinator or evaluated by a worker before join. *)
               failwith (Printf.sprintf "Serve.exec: open-loop slot %d never served" idx))
         slots)
  in
  let outcomes = List.map (fun t -> t.timed_outcome) timed in
  let count p = count p outcomes in
  let rejected_overload = count (function Request.Rejected Request.Overloaded -> true | _ -> false) in
  let expired = count (function Request.Rejected Request.Expired -> true | _ -> false) in
  let completed = count (function Request.Done _ -> true | _ -> false) in
  let partial = count (function Request.Partial _ -> true | _ -> false) in
  let failed = count (function Request.Failed _ -> true | _ -> false) in
  let os =
    {
      open_jobs = jobs;
      offered = n;
      admitted = n - rejected_overload;
      rejected_overload;
      expired;
      completed;
      partial;
      failed;
      wall_s;
      achieved_rate =
        (if wall_s > 0.0 then Some (float_of_int (completed + partial) /. wall_s) else None);
    }
  in
  let stats =
    {
      jobs;
      queries = n;
      errors = failed;
      rejected = rejected_overload + expired;
      partials = partial;
      elapsed_s = wall_s;
      throughput_qps = os.achieved_rate;
      domains_used = domains_used outcomes;
      cache = cache_delta cfg before;
    }
  in
  { outcomes; stats; timed = Some timed; open_stats = Some os }

(* ------------------------------------------------------------------ *)
(* The entry point                                                     *)

let exec cfg engine requests =
  match cfg.mode with
  | Closed -> exec_closed cfg engine requests
  | Open _ when cfg.pool <> None ->
      invalid_arg
        "Serve.exec: config.pool is only used when config.mode = Closed; open mode spawns its \
         own worker domains (set pool = None or mode = Closed)"
  | Open oc -> exec_open cfg oc engine requests

(* ------------------------------------------------------------------ *)
(* Determinism fingerprint                                             *)

(* The full observable output of a batch as one string: per query, the
   ranked (TID, score) list (flagged when it is a deadline-truncated
   prefix), the optimizer's strategy choice, the isolated work counters,
   the rejection kind, or the raised exception.  Wall-clock fields are
   deliberately excluded — and so is the per-outcome cache status: which
   occurrence of a repeated query populates the cache depends on domain
   scheduling, but the *values* served do not.  A closed-mode batch must
   fingerprint identically for every jobs value, cold or warm; a
   [Ticks]-deadline batch must fingerprint identically on every run. *)
let fingerprint outcomes =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i (o : Request.outcome) ->
      let req = o.Request.request in
      Buffer.add_string buf
        (Printf.sprintf "Q%d %s %s k=%d: " i
           (Engine.method_name req.Request.method_)
           (Ranking.name req.Request.scheme) req.Request.k);
      (match o.Request.result with
      | Request.Done r | Request.Partial r ->
          List.iter
            (fun (tid, score) ->
              Buffer.add_string buf
                (match score with
                | Some s -> Printf.sprintf "%d=%.17g;" tid s
                | None -> Printf.sprintf "%d;" tid))
            r.Request.ranked;
          Buffer.add_string buf
            (match r.Request.strategy with
            | Some Topo_sql.Optimizer.Regular -> " regular"
            | Some Topo_sql.Optimizer.Early_termination -> " et"
            | None -> "");
          (match o.Request.result with
          | Request.Partial _ -> Buffer.add_string buf " partial"
          | _ -> ())
      | Request.Rejected rj -> Buffer.add_string buf ("rejected " ^ Request.rejection_name rj)
      | Request.Failed e -> Buffer.add_string buf ("error " ^ Printexc.to_string e));
      Buffer.add_string buf
        (Printf.sprintf " [t=%d p=%d s=%d]\n" o.Request.counters.Counters.tuples
           o.Request.counters.Counters.index_probes o.Request.counters.Counters.rows_scanned))
    outcomes;
  Buffer.contents buf
