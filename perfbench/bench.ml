(* The three closed-loop workloads, their correctness gate, and the
   end-to-end and per-layer metrics (README.md in this directory has the
   metric definitions and the prediction table). *)

module Engine = Topo_core.Engine
module Methods = Topo_core.Methods
module Request = Topo_core.Request
module Serve = Topo_core.Serve
module Cache = Topo_core.Cache
module Router = Topo_core.Router
module Snapshot = Topo_core.Snapshot
module Wire = Topo_core.Wire
module Query = Topo_core.Query
module Trace = Topo_obs.Trace
module Counters = Topo_sql.Iterator.Counters
module Optimizer = Topo_sql.Optimizer
module Pool = Topo_util.Pool

exception Gate of string

let gate fmt = Printf.ksprintf (fun s -> raise (Gate s)) fmt

(* --- one client call ------------------------------------------------------- *)

type call = { idx : int; call_s : float; outcome : Request.outcome }

let exec_one cfg engine idx req =
  let t0 = Measure.now () in
  let r = Serve.exec cfg engine [ req ] in
  let call_s = Measure.now () -. t0 in
  match r.Serve.outcomes with
  | [ outcome ] -> { idx; call_s; outcome }
  | l -> gate "Serve.exec returned %d outcomes for one request" (List.length l)

let is_done (o : Request.outcome) = match o.Request.result with Request.Done _ -> true | _ -> false

let evaluated (c : call) =
  match c.outcome.Request.cache with Request.Miss | Request.Uncached -> true | Request.Hit -> false

(* A timed phase of one or more closed-loop client domains. *)
type phase = {
  calls : call list;  (** in stream order *)
  wall_s : float;
  alloc_words : float;  (** minor-heap words allocated by the client domains *)
  gc : Measure.gc_counts;  (** collections during the phase *)
  cache_delta : Cache.totals option;
}

let attempted p = List.length p.calls
let done_count p = List.length (List.filter (fun c -> is_done c.outcome) p.calls)

(* [clients] domains (the caller is one of them) each call [Serve.exec]
   with one request per call on a private jobs = 1 pool, drawing stream
   positions from a shared counter, until [stop] says so. *)
let closed_loop ~clients ~engine ?cache ?(traces = false) ~next ~stop (req_at : int -> Request.t) =
  let before_cache = Option.map Cache.totals cache in
  let before_gc = Measure.gc_counts () in
  let t0 = Measure.now () in
  let client () =
    let pool = Pool.create ~jobs:1 () in
    let cfg = Serve.config ~pool ?cache ~traces () in
    let w0 = Gc.minor_words () in
    let rec loop acc =
      if stop ~t0 ~taken:(Atomic.get next) then acc
      else
        let i = Atomic.fetch_and_add next 1 in
        loop (exec_one cfg engine i (req_at i) :: acc)
    in
    let calls = loop [] in
    let words = Gc.minor_words () -. w0 in
    Pool.shutdown pool;
    (calls, words, Measure.now ())
  in
  let others = List.init (clients - 1) (fun _ -> Domain.spawn client) in
  let mine = client () in
  let all = mine :: List.map Domain.join others in
  let wall_s = List.fold_left (fun acc (_, _, t) -> Float.max acc (t -. t0)) 0.0 all in
  {
    calls = List.sort (fun a b -> compare a.idx b.idx) (List.concat_map (fun (c, _, _) -> c) all);
    wall_s;
    alloc_words = List.fold_left (fun acc (_, w, _) -> acc +. w) 0.0 all;
    gc = Measure.gc_since before_gc;
    cache_delta =
      (match (cache, before_cache) with
      | Some c, Some b -> Some (Cache.diff ~before:b ~after:(Cache.totals c))
      | _ -> None);
  }

let for_seconds seconds ~t0 ~taken:_ = Measure.now () -. t0 >= seconds
let until_count n ~t0:_ ~taken = taken >= n

(* --- routed calls ------------------------------------------------------------ *)

type routed = {
  batches : Request.t list list;  (** kept only when asked for (traced runs) *)
  latencies : float list;  (** one per Router.exec call *)
  requests : int;
  answered : int;  (** Done outcomes *)
  rejected : int;  (** Rejected Overloaded outcomes: shard admission shed them *)
  busy_s : float;  (** sum of call durations *)
  r_alloc_words : float;
  r_gc : Measure.gc_counts;
}

(* Same answer as the reference outcome: what [Serve.fingerprint]
   renders for a [Done] outcome, compared field by field so the check
   stays cheap enough to run on every batch. *)
let same_answer (o : Request.outcome) (r : Request.outcome) =
  o.Request.request.Request.method_ = r.Request.request.Request.method_
  && o.Request.request.Request.scheme = r.Request.request.Request.scheme
  && o.Request.request.Request.k = r.Request.request.Request.k
  && o.Request.counters = r.Request.counters
  &&
  match (o.Request.result, r.Request.result) with
  | Request.Done a, Request.Done b ->
      a.Request.ranked = b.Request.ranked && a.Request.strategy = b.Request.strategy
  | _ -> false

(* A single client calling [Router.exec] with one batch per call.  Every
   batch is checked against [reference] between calls, outside the call
   timing. *)
let routed_loop ~router ~seconds ~next_batch ~reference ~keep =
  let t0 = Measure.now () in
  let before_gc = Measure.gc_counts () in
  let w0 = Gc.minor_words () in
  let rec loop acc =
    if Measure.now () -. t0 >= seconds then acc
    else begin
      let batch = next_batch () in
      let c0 = Measure.now () in
      let outcomes = Router.exec router batch in
      let dt = Measure.now () -. c0 in
      let answered = ref 0 and rejected = ref 0 in
      List.iter2
        (fun req (o : Request.outcome) ->
          match o.Request.result with
          | Request.Done _ ->
              if not (same_answer o (Hashtbl.find reference (Request.key req))) then
                gate "routed outcome for %s differs from in-process evaluation" (Request.to_string req);
              incr answered
          | Request.Rejected Request.Overloaded -> incr rejected
          | _ -> ())
        batch outcomes;
      loop
        {
          acc with
          batches = (if keep then batch :: acc.batches else acc.batches);
          latencies = dt :: acc.latencies;
          requests = acc.requests + List.length batch;
          answered = acc.answered + !answered;
          rejected = acc.rejected + !rejected;
          busy_s = acc.busy_s +. dt;
        }
    end
  in
  let r =
    loop
      {
        batches = [];
        latencies = [];
        requests = 0;
        answered = 0;
        rejected = 0;
        busy_s = 0.0;
        r_alloc_words = 0.0;
        r_gc = { Measure.minor = 0; major = 0 };
      }
  in
  {
    r with
    batches = List.rev r.batches;
    latencies = List.rev r.latencies;
    r_alloc_words = Gc.minor_words () -. w0;
    r_gc = Measure.gc_since before_gc;
  }

(* --- correctness gate -------------------------------------------------------- *)

(* Uncached jobs = 1 evaluation of the same requests must fingerprint
   identically to what the timed phase served. *)
let check_against_uncached engine what (calls : call list) req_at =
  List.iter
    (fun c ->
      if not (is_done c.outcome) then
        gate "%s: request %d ended %s, not done" what c.idx
          (Request.outcome_result_name c.outcome.Request.result))
    calls;
  let reqs = List.map (fun c -> req_at c.idx) calls in
  let reference = (Serve.exec (Serve.config ~jobs:1 ()) engine reqs).Serve.outcomes in
  let served = List.map (fun c -> c.outcome) calls in
  if Serve.fingerprint served <> Serve.fingerprint reference then begin
    List.iter2
      (fun (c : call) r ->
        if Serve.fingerprint [ c.outcome ] <> Serve.fingerprint [ r ] then
          gate "%s: request %d (%s) differs from uncached jobs=1 evaluation" what c.idx
            (Request.to_string (req_at c.idx)))
      calls reference;
    gate "%s: batch fingerprint differs from uncached jobs=1 evaluation" what
  end;
  List.length calls

(* In-process uncached jobs = 1 evaluation of [keys], by canonical key. *)
let reference_outcomes engine keys =
  let table = Hashtbl.create (Array.length keys) in
  let outcomes = (Serve.exec (Serve.config ~jobs:1 ()) engine (Array.to_list keys)).Serve.outcomes in
  List.iter
    (fun (o : Request.outcome) ->
      if not (is_done o) then
        gate "reference evaluation of %s ended %s" (Request.to_string o.Request.request)
          (Request.outcome_result_name o.Request.result);
      Hashtbl.replace table (Request.key o.Request.request) o)
    outcomes;
  table

(* Whole-batch fingerprint identity for a sample of routed batches (the
   per-batch field check ran on all of them). *)
let check_routed_fingerprints router reference batches =
  List.iter
    (fun batch ->
      let routed = Router.exec router batch in
      let local = List.map (fun r -> Hashtbl.find reference (Request.key r)) batch in
      if Serve.fingerprint routed <> Serve.fingerprint local then
        gate "routed batch fingerprint differs from in-process evaluation")
    batches

(* --- traced phases ----------------------------------------------------------- *)

(* Span names the methods record, grouped into the phases we report. *)
let phase_of_span = function
  | "optimize" | "choose" -> Some `Optimize
  | "build_plan" | "build_et_plan" -> Some `Plan
  | "execute" | "stream_witnesses" | "merge_with_pruned" -> Some `Execute
  | "pruned_checks" -> Some `Pruned
  | _ -> None

type split = {
  optimize : float;
  plan : float;
  execute : float;
  pruned : float;
  method_self : float;
  unclassified : float;  (** self time of spans no phase claims; must be 0 *)
  outside : float;  (** call time minus the root span *)
  total : float;  (** the call *)
}

let self_s span =
  Trace.duration_s span -. List.fold_left (fun acc c -> acc +. Trace.duration_s c) 0.0 (Trace.children span)

(* Self time of every span of an evaluated call's tree, by phase. *)
let split_of (c : call) =
  match c.outcome.Request.trace with
  | None -> None
  | Some tr -> (
      match Trace.roots tr with
      | [ root ] when Trace.name root <> "cache_hit" ->
          let s =
            ref
              {
                optimize = 0.0;
                plan = 0.0;
                execute = 0.0;
                pruned = 0.0;
                method_self = self_s root;
                unclassified = 0.0;
                outside = c.call_s -. Trace.duration_s root;
                total = c.call_s;
              }
          in
          let rec walk span =
            let t = self_s span in
            (s :=
               match phase_of_span (Trace.name span) with
               | Some `Optimize -> { !s with optimize = !s.optimize +. t }
               | Some `Plan -> { !s with plan = !s.plan +. t }
               | Some `Execute -> { !s with execute = !s.execute +. t }
               | Some `Pruned -> { !s with pruned = !s.pruned +. t }
               | None -> { !s with unclassified = !s.unclassified +. t });
            List.iter walk (Trace.children span)
          in
          List.iter walk (Trace.children root);
          Some !s
      | _ -> None)

(* Relative tolerance of the phase-sum check: the mean phases plus the
   mean outside time must equal the mean traced call time within it. *)
let phase_epsilon = 0.005

let phase_metrics (calls : call list) =
  let splits = List.filter_map split_of calls in
  let n = List.length splits in
  if n = 0 then gate "traced phase evaluated no request";
  let avg f = Measure.mean (List.map f splits) *. 1000.0 in
  let optimize = avg (fun s -> s.optimize)
  and plan = avg (fun s -> s.plan)
  and execute = avg (fun s -> s.execute)
  and pruned = avg (fun s -> s.pruned)
  and method_self = avg (fun s -> s.method_self)
  and unclassified = avg (fun s -> s.unclassified)
  and outside = avg (fun s -> s.outside)
  and total = avg (fun s -> s.total) in
  let sum = optimize +. plan +. execute +. pruned +. method_self +. outside in
  if unclassified > 0.0 then gate "phase check: %.6f ms per request in spans no phase claims" unclassified;
  if List.exists (fun s -> s.outside < 0.0) splits then gate "phase check: a root span outlasted its call";
  if Float.abs (sum -. total) > phase_epsilon *. total then
    gate "phase check: phases sum to %.6f ms against %.6f ms per call" sum total;
  Printf.printf "  phase check: %d traced evaluations; phases + outside = %.6f ms, call = %.6f ms (eps %.1f%%)\n"
    n sum total (phase_epsilon *. 100.0);
  let note = Printf.sprintf "(mean self time, n=%d evaluated traced calls)" n in
  [
    Measure.metric ~note "phase.optimize_ms" "ms" optimize;
    Measure.metric ~note "phase.plan_ms" "ms" plan;
    Measure.metric ~note "phase.execute_ms" "ms" execute;
    Measure.metric ~note "phase.pruned_checks_ms" "ms" pruned;
    Measure.metric ~note "phase.method_self_ms" "ms" method_self;
    Measure.metric ~note "phase.outside_ms" "ms" outside;
  ]

(* --- evaluation-layer metrics ------------------------------------------------- *)

let method_slug m = String.lowercase_ascii (Engine.method_name m)

(* Per-method p50, optimizer choice and operator work over the calls
   that evaluated (cache misses and uncached calls). *)
let eval_metrics ~source (calls : call list) =
  let ev = List.filter evaluated calls in
  let n = List.length ev in
  let per_method =
    List.map
      (fun m ->
        let xs =
          List.filter_map
            (fun c -> if c.outcome.Request.request.Request.method_ = m then Some (c.call_s *. 1000.0) else None)
            ev
        in
        Measure.metric
          ~note:(Printf.sprintf "(n=%d %s)" (List.length xs) source)
          (Printf.sprintf "method.%s.p50_ms" (method_slug m))
          "ms" (Measure.median xs))
      Workload.methods
  in
  let opt =
    List.filter
      (fun c ->
        match c.outcome.Request.request.Request.method_ with
        | Methods.Full_top_k_opt | Methods.Fast_top_k_opt -> true
        | _ -> false)
      ev
  in
  let et =
    List.length
      (List.filter
         (fun c ->
           match c.outcome.Request.result with
           | Request.Done { Request.strategy = Some Optimizer.Early_termination; _ } -> true
           | _ -> false)
         opt)
  in
  let sum f = float_of_int (List.fold_left (fun acc c -> acc + f c.outcome.Request.counters) 0 ev) in
  let results =
    List.fold_left
      (fun acc c ->
        match c.outcome.Request.result with
        | Request.Done r -> acc + List.length r.Request.ranked
        | _ -> acc)
      0 ev
  in
  let per_req f = Measure.ratio (sum f) (float_of_int n) in
  let note = Printf.sprintf "(n=%d %s)" n source in
  per_method
  @ [
      Measure.metric
        ~note:(Printf.sprintf "(%d of %d -Opt requests chose early termination)" et (List.length opt))
        "optimizer.et_share" "ratio"
        (Measure.ratio (float_of_int et) (float_of_int (List.length opt)));
      Measure.metric ~note "work.tuples_per_req" "count" (per_req (fun s -> s.Counters.tuples));
      Measure.metric ~note "work.index_probes_per_req" "count" (per_req (fun s -> s.Counters.index_probes));
      Measure.metric ~note "work.rows_scanned_per_req" "count" (per_req (fun s -> s.Counters.rows_scanned));
      Measure.metric
        ~note:(Printf.sprintf "(%d ranked results)" results)
        "work.rows_per_result" "count"
        (Measure.ratio (sum (fun s -> s.Counters.rows_scanned)) (float_of_int results));
    ]

let cache_metrics ~source (totals : Cache.totals) ~hit_us ~miss_ms =
  let r = totals.Cache.results in
  [
    Measure.metric
      ~note:(Printf.sprintf "(%d hits of %d lookups, %s)" r.Cache.hits (r.Cache.hits + r.Cache.misses) source)
      "cache.result.hit_rate" "ratio" (Cache.hit_rate r);
    Measure.metric ~note:source "cache.result.evictions" "count" (float_of_int r.Cache.evictions);
    Measure.metric ~note:source "cache.result.insertions" "count" (float_of_int r.Cache.insertions);
    Measure.metric ~note:source "cache.plan.hit_rate" "ratio" (Cache.hit_rate totals.Cache.plans);
    Measure.metric
      ~note:(Printf.sprintf "(n=%d calls answered by a hit, %s)" (List.length (fst hit_us)) (snd hit_us))
      "cache.hit_p50_us" "us"
      (Measure.median (fst hit_us));
    Measure.metric
      ~note:(Printf.sprintf "(n=%d calls that missed, %s)" (List.length (fst miss_ms)) (snd miss_ms))
      "cache.miss_p50_ms" "ms"
      (Measure.median (fst miss_ms));
  ]

let status_times status scale (calls : call list) =
  List.filter_map (fun c -> if c.outcome.Request.cache = status then Some (c.call_s *. scale) else None) calls

let gc_metrics ~requests ~alloc_words (gc : Measure.gc_counts) =
  let per_req = float_of_int (max 1 requests) in
  let note = Printf.sprintf "(over %d requests)" requests in
  [
    Measure.metric ~note "gc.alloc_kw_per_req" "kword" (alloc_words /. 1000.0 /. per_req);
    Measure.metric ~note "gc.minor_per_kreq" "count" (float_of_int gc.Measure.minor *. 1000.0 /. per_req);
    Measure.metric ~note "gc.major_per_kreq" "count" (float_of_int gc.Measure.major *. 1000.0 /. per_req);
  ]

(* --- router hop and wire codec ------------------------------------------------ *)

(* Re-time the Request/Wire codec functions on [batches]: the same calls
   the router and the shard make per batch, one step at a time. *)
let codec_metrics reference batches =
  let enc_req = ref [] and dec_req = ref [] and enc_out = ref [] and dec_out = ref [] in
  let frame = ref [] and req_bytes = ref [] and out_bytes = ref [] in
  let us f =
    let r, dt = Measure.timed f in
    (r, dt *. 1e6)
  in
  List.iter
    (fun batch ->
      let outcomes = List.map (fun r -> Hashtbl.find reference (Request.key r)) batch in
      let n = List.length batch in
      let req_payload, t =
        us (fun () ->
            let buf = Buffer.create 4096 in
            Wire.w_u32 buf n;
            List.iter (Request.write_payload buf) batch;
            Buffer.contents buf)
      in
      enc_req := t :: !enc_req;
      let _, t =
        us (fun () ->
            let r = Wire.reader req_payload in
            let m = Wire.r_count r "batch size" in
            let reqs = Wire.r_list r m "request" (fun () -> Request.read_payload r) in
            Wire.r_end r;
            reqs)
      in
      dec_req := t :: !dec_req;
      let out_payload, t =
        us (fun () ->
            let buf = Buffer.create 4096 in
            Wire.w_u32 buf n;
            List.iter (Request.write_outcome_payload buf) outcomes;
            Buffer.contents buf)
      in
      enc_out := t :: !enc_out;
      let _, t =
        us (fun () ->
            let r = Wire.reader out_payload in
            let m = Wire.r_count r "batch size" in
            let outs = Wire.r_list r m "outcome" (fun () -> Request.read_outcome_payload r) in
            Wire.r_end r;
            outs)
      in
      dec_out := t :: !dec_out;
      let req_frame, t1 = us (fun () -> Wire.frame ~kind:Wire.kind_batch_request req_payload) in
      let out_frame, t2 = us (fun () -> Wire.frame ~kind:Wire.kind_batch_outcome out_payload) in
      frame := (t1 +. t2) :: !frame;
      req_bytes := float_of_int (String.length req_frame) :: !req_bytes;
      out_bytes := float_of_int (String.length out_frame) :: !out_bytes)
    batches;
  let p50 r = Measure.median !r in
  (* The sender frames each payload and the receiver re-checksums it, so
     one hop pays the frame cost twice in each direction's MD5. *)
  let codec_us = p50 enc_req +. p50 dec_req +. p50 enc_out +. p50 dec_out +. (2.0 *. p50 frame) in
  let note = Printf.sprintf "(p50 per %d-request batch, n=%d batches)" Workload.batch_size (List.length batches) in
  ( codec_us,
    [
      Measure.metric ~note "wire.req_encode_us" "us" (p50 enc_req);
      Measure.metric ~note "wire.req_decode_us" "us" (p50 dec_req);
      Measure.metric ~note "wire.out_encode_us" "us" (p50 enc_out);
      Measure.metric ~note "wire.out_decode_us" "us" (p50 dec_out);
      Measure.metric ~note "wire.frame_us" "us" (p50 frame);
      Measure.metric ~note:"(mean frame bytes per batch)" "wire.req_bytes" "bytes" (Measure.mean !req_bytes);
      Measure.metric ~note:"(mean frame bytes per batch)" "wire.out_bytes" "bytes" (Measure.mean !out_bytes);
    ] )

(* In-process [Serve.exec] of the same batches on a warmed cache: what a
   routed call would cost without the hop. *)
let in_process_p50 engine hot batches =
  let cache = Engine.cache engine in
  Pool.with_pool ~jobs:1 (fun pool ->
      let cfg = Serve.config ~pool ~cache () in
      ignore (Serve.exec cfg engine (Array.to_list hot));
      Measure.median
        (List.map (fun b -> snd (Measure.timed (fun () -> ignore (Serve.exec cfg engine b)))) batches))

let fanout (s : Setup.slices) batches =
  let shards_of batch =
    List.length
      (List.sort_uniq compare
         (List.map
            (fun (r : Request.t) ->
              Snapshot.shard_of_pair ~shards:s.Setup.manifest.Snapshot.shards
                ~t1:r.Request.query.Query.e1.Query.entity ~t2:r.Request.query.Query.e2.Query.entity)
            batch))
  in
  Measure.ratio
    (float_of_int (List.fold_left (fun acc b -> acc + shards_of b) 0 batches))
    (float_of_int (List.length batches))

(* Router/shard/wire metrics from a routed phase over [hot]. *)
let hop_metrics ~source engine slices reference hot (r : routed) =
  let retimed = List.filteri (fun i _ -> i < 2048) r.batches in
  let codec_us, wire = codec_metrics reference retimed in
  let local_p50 = in_process_p50 engine hot retimed in
  let routed_p50 = Measure.median r.latencies in
  let per_req = float_of_int Workload.batch_size in
  let hop_us = (routed_p50 -. local_p50) *. 1e6 /. per_req in
  let note = Printf.sprintf "(routed p50 %.1f us - in-process p50 %.1f us per batch, %s)" (routed_p50 *. 1e6) (local_p50 *. 1e6) source in
  wire
  @ [
      Measure.metric ~note "router.hop_us_per_req" "us" hop_us;
      Measure.metric ~note:"(hop minus re-timed codec: syscalls, wake-ups, merge)" "router.unaccounted_us_per_req" "us"
        (hop_us -. (codec_us /. per_req));
      Measure.metric
        ~note:(Printf.sprintf "(mean shards per batch, n=%d batches)" (List.length r.batches))
        "router.fanout" "count" (fanout slices r.batches);
      Measure.metric ~note:"(requests shed by shard admission)" "shard.rejected" "count" (float_of_int r.rejected);
    ]

(* --- shared metric blocks ------------------------------------------------------- *)

let catalog (off : Setup.offline) = off.Setup.engine.Engine.ctx.Topo_core.Context.catalog

let offline_metrics (off : Setup.offline) (s : Setup.slices) =
  let paths, unions, capped, topologies = Setup.build_counts off in
  let count name v = Measure.metric ~note:"(exact, from build_stats and the registry)" name "count" (float_of_int v) in
  [
    count "build.instance_paths" paths;
    count "build.unions" unions;
    count "build.capped_pairs" capped;
    count "build.topologies" topologies;
    Measure.metric "snapshot.save_s" "s" off.Setup.save_s;
    Measure.metric "snapshot.load_s" "s" off.Setup.load_s;
    Measure.metric ~note:(Printf.sprintf "(%d slices)" Setup.shards) "snapshot.slice_s" "s" s.Setup.slice_s;
    Measure.metric "snapshot.slice_bytes_max" "bytes" (float_of_int s.Setup.max_bytes);
    Measure.metric ~note:"(all slices)" "snapshot.slice_load_s" "s" s.Setup.slice_load_s;
  ]

let trace_overhead ~untraced_qps ~traced_qps =
  Measure.metric
    ~note:(Printf.sprintf "(traced %.1f/s vs untraced %.1f/s)" traced_qps untraced_qps)
    "trace.overhead" "ratio"
    (1.0 -. Measure.ratio traced_qps untraced_qps)

let sum_stats (a : Cache.stats) (b : Cache.stats) =
  {
    Cache.hits = a.Cache.hits + b.Cache.hits;
    misses = a.Cache.misses + b.Cache.misses;
    evictions = a.Cache.evictions + b.Cache.evictions;
    invalidations = a.Cache.invalidations + b.Cache.invalidations;
    insertions = a.Cache.insertions + b.Cache.insertions;
    entries = a.Cache.entries + b.Cache.entries;
  }

let fleet_totals (s : Setup.slices) =
  Array.fold_left
    (fun (acc : Cache.totals) c ->
      let t = Cache.totals c in
      { Cache.results = sum_stats acc.Cache.results t.Cache.results; plans = sum_stats acc.Cache.plans t.Cache.plans })
    Cache.zero_totals s.Setup.caches

(* The end-to-end block.  A --trace 0 run is [rounds] rounds, each a
   full set-up followed by a timed slice of [seconds / rounds].  Set-up,
   build and throughput are medians over the rounds; latency percentiles
   are taken over every call of every round.  Spreading the timed
   seconds over the whole run, between set-ups, makes the figures less
   sensitive to a stretch of seconds in which a shared machine runs
   slow. *)
let rounds = 4

type round = {
  setup_s : float;
  build_s : float;
  snapshot_bytes : int;
  peak_rss_mb : float;  (** VmHWM right after the timed slice *)
  rate : float;  (** requests answered per second of the slice *)
  latencies_ms : float list;  (** one per client call *)
  answered : int;
  attempted_reqs : int;
}

let e2e_report ~call_unit (rs : round list) =
  let first = List.hd rs in
  let med f = Measure.median (List.map f rs) in
  let per_round fmt f = String.concat ", " (List.map (fun r -> Printf.sprintf fmt (f r)) rs) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let latencies = List.concat_map (fun r -> r.latencies_ms) rs in
  let calls = Printf.sprintf "(all %d rounds, n=%d %s)" rounds (List.length latencies) call_unit in
  let ms =
    [
      Measure.metric ~note:(Printf.sprintf "(median of %d: %s)" rounds (per_round "%.3f" (fun r -> r.setup_s))) "setup_s" "s"
        (med (fun r -> r.setup_s));
      Measure.metric ~note:(Printf.sprintf "(median of %d: %s)" rounds (per_round "%.3f" (fun r -> r.build_s))) "build_s" "s"
        (med (fun r -> r.build_s));
      Measure.metric "snapshot_bytes" "bytes" (float_of_int first.snapshot_bytes);
      Measure.metric ~note:"(VmHWM after the first round's timed slice)" "peak_rss_mb" "MB" first.peak_rss_mb;
      Measure.metric
        ~note:(Printf.sprintf "(median of %d rounds: %s; %d requests answered)" rounds (per_round "%.1f" (fun r -> r.rate))
                 (sum (fun r -> r.answered)))
        "qps" "1/s" (med (fun r -> r.rate));
      Measure.metric ~note:calls "latency_p50_ms" "ms" (Measure.quantile latencies 0.5);
      Measure.metric ~note:calls "latency_p99_ms" "ms" (Measure.quantile latencies 0.99);
    ]
  in
  Measure.print_metrics ms;
  let attempted = sum (fun r -> r.attempted_reqs) in
  let failed = attempted - sum (fun r -> r.answered) in
  Printf.printf "  %-34s %16.6f %-6s (%d of %d attempted requests)\n" "failed_share"
    (Measure.ratio (float_of_int failed) (float_of_int attempted))
    "ratio" failed attempted;
  (attempted, failed, ms)

let e2e_rounds ~seconds ~call_unit round =
  let slice = seconds /. float_of_int rounds in
  e2e_report ~call_unit
    (List.init rounds (fun i ->
         Gc.full_major ();
         Setup.with_dir (fun dir -> round ~slice ~round:i ~dir)))

let serve_round (off : Setup.offline) ~setup_s ~rss (p : phase) =
  {
    setup_s;
    build_s = off.Setup.build_s;
    snapshot_bytes = off.Setup.snapshot_bytes;
    peak_rss_mb = rss;
    rate = Measure.ratio (float_of_int (done_count p)) p.wall_s;
    latencies_ms = List.map (fun c -> c.call_s *. 1000.0) p.calls;
    answered = done_count p;
    attempted_reqs = attempted p;
  }

(* --- serve-distinct ----------------------------------------------------------------- *)

type distinct = { d_off : Setup.offline; d_timed : Request.t array; d_cache : Cache.t }

let distinct_setup ~seed ~dir =
  let off = Setup.offline ~dir () in
  let warm, timed = Workload.distinct (Workload.order ~seed (Workload.universe (catalog off))) in
  let cache = Engine.cache off.Setup.engine in
  ignore
    (closed_loop ~clients:1 ~engine:off.Setup.engine ~cache ~next:(Atomic.make 0)
       ~stop:(until_count (Array.length warm))
       (fun i -> warm.(i)));
  { d_off = off; d_timed = timed; d_cache = cache }

let distinct_phase st ~next ~limit ~seconds ~traces =
  closed_loop ~clients:1 ~engine:st.d_off.Setup.engine ~cache:st.d_cache ~traces ~next
    ~stop:(fun ~t0 ~taken -> taken >= limit || for_seconds seconds ~t0 ~taken)
    (fun i -> st.d_timed.(i))

(* --- serve-zipf ------------------------------------------------------------------------ *)

let zipf_clients = 2

(* Each round of a --trace 0 run starts its warm-up this far into the
   stream, so the rounds replay different stretches of it. *)
let zipf_round_span = 50_000

type zipf = { z_off : Setup.offline; z_ordered : Request.t array; z_stream : Request.t array; z_cache : Cache.t; z_next : int Atomic.t }

let zipf_setup ~seed ~offset ~dir =
  let off = Setup.offline ~dir () in
  let ordered = Workload.order ~seed (Workload.universe (catalog off)) in
  let stream = Workload.zipf_stream ~seed ordered ~length:(rounds * zipf_round_span) in
  let cache = Engine.cache off.Setup.engine in
  let next = Atomic.make offset in
  ignore
    (closed_loop ~clients:zipf_clients ~engine:off.Setup.engine ~cache ~next
       ~stop:(until_count (offset + Workload.zipf_warmup))
       (fun i -> stream.(i mod Array.length stream)));
  { z_off = off; z_ordered = ordered; z_stream = stream; z_cache = cache; z_next = next }

let zipf_req st i = st.z_stream.(i mod Array.length st.z_stream)

let zipf_phase st ~seconds ~traces =
  closed_loop ~clients:zipf_clients ~engine:st.z_off.Setup.engine ~cache:st.z_cache ~traces ~next:st.z_next
    ~stop:(for_seconds seconds) (zipf_req st)

(* The fixed sample of serve-zipf calls the gate re-evaluates. *)
let zipf_sample calls = List.filter (fun c -> c.idx mod 16 = 0) calls

(* --- routed-hot -------------------------------------------------------------------------- *)

type routed_state = {
  r_off : Setup.offline;
  r_hot : Request.t array;
  r_slices : Setup.slices;
  mutable r_fleet : Setup.fleet;
}

let routed_setup ~seed ~dir =
  let off = Setup.offline ~dir () in
  let hot = Workload.routed_hot (Workload.order ~seed (Workload.universe (catalog off))) in
  let slices = Setup.slice ~dir off.Setup.engine in
  let fleet = Setup.start slices in
  List.iter (fun b -> ignore (Router.exec fleet.Setup.router b)) (Workload.routed_warmup hot);
  { r_off = off; r_hot = hot; r_slices = slices; r_fleet = fleet }

let routed_teardown st = Setup.stop st.r_fleet

(* Every routed outcome is Done and the shard caches only hit. *)
let check_routed_phase (r : routed) (delta : Cache.totals) =
  if r.answered <> r.requests then
    gate "routed-hot: %d of %d requests did not end done" (r.requests - r.answered) r.requests;
  let res = delta.Cache.results in
  if res.Cache.misses <> 0 || res.Cache.evictions <> 0 then
    gate "routed-hot: timed phase had %d cache misses and %d evictions (expected only hits)" res.Cache.misses
      res.Cache.evictions

(* --- per-layer metric set ------------------------------------------------------------------ *)

let per_layer_names =
  [ "build.instance_paths"; "build.unions"; "build.capped_pairs"; "build.topologies"; "snapshot.save_s";
    "snapshot.load_s"; "snapshot.slice_s"; "snapshot.slice_bytes_max"; "snapshot.slice_load_s" ]
  @ List.map (fun m -> Printf.sprintf "method.%s.p50_ms" (method_slug m)) Workload.methods
  @ [ "optimizer.et_share"; "phase.optimize_ms"; "phase.plan_ms"; "phase.execute_ms"; "phase.pruned_checks_ms";
      "phase.method_self_ms"; "phase.outside_ms"; "trace.overhead"; "work.tuples_per_req";
      "work.index_probes_per_req"; "work.rows_scanned_per_req"; "work.rows_per_result";
      "cache.result.hit_rate"; "cache.result.evictions"; "cache.result.insertions"; "cache.plan.hit_rate";
      "cache.hit_p50_us"; "cache.miss_p50_ms"; "wire.req_encode_us"; "wire.req_decode_us";
      "wire.out_encode_us"; "wire.out_decode_us"; "wire.frame_us"; "wire.req_bytes"; "wire.out_bytes";
      "router.hop_us_per_req"; "router.unaccounted_us_per_req"; "router.fanout"; "shard.rejected";
      "gc.alloc_kw_per_req"; "gc.minor_per_kreq"; "gc.major_per_kreq" ]

(* Every per-layer metric exactly once, in the canonical order. *)
let layer_set (ms : Measure.metric list) =
  List.map
    (fun name ->
      match List.filter (fun (m : Measure.metric) -> m.Measure.name = name) ms with
      | [ m ] -> m
      | l -> gate "per-layer metric %s measured %d times" name (List.length l))
    per_layer_names

(* --- probes shared by the traced runs -------------------------------------------------------- *)

(* Slice the engine, boot a fleet, and route Zipf batches over [hot]
   for [seconds]: router, shard and wire metrics for a workload that does
   not route by itself. *)
let fleet_probe ~seed ~dir (off : Setup.offline) hot ~seconds =
  let slices = Setup.slice ~dir off.Setup.engine in
  let reference = reference_outcomes off.Setup.engine hot in
  let hop =
    Setup.with_fleet slices (fun fleet ->
        List.iter (fun b -> ignore (Router.exec fleet.Setup.router b)) (Workload.routed_warmup hot);
        let r =
          routed_loop ~router:fleet.Setup.router ~seconds ~next_batch:(Workload.routed_batches ~seed hot) ~reference
            ~keep:true
        in
        check_routed_fingerprints fleet.Setup.router reference (List.filteri (fun i _ -> i < 64) r.batches);
        hop_metrics ~source:"fleet probe over the workload's first 512 keys" off.Setup.engine slices reference hot r)
  in
  (slices, hop)

(* Single-request in-process calls over [keys] on [cache] (a fresh one
   when not given). *)
let key_pass engine ?(cache = Engine.cache engine) ?traces keys =
  closed_loop ~clients:1 ~engine ~cache ?traces ~next:(Atomic.make 0) ~stop:(until_count (Array.length keys))
    (fun i -> keys.(i))

(* --- workload entry points ---------------------------------------------------------------------------------- *)

let distinct_keys_check (calls : call list) req_at =
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun c ->
      let k = Request.key (req_at c.idx) in
      if Hashtbl.mem seen k then gate "serve-distinct repeated key %s" k;
      Hashtbl.add seen k ())
    calls

let distinct_gate st (calls : call list) =
  let req_at i = st.d_timed.(i) in
  distinct_keys_check calls req_at;
  let checked = check_against_uncached st.d_off.Setup.engine "serve-distinct" calls req_at in
  Printf.printf "  gate: %d timed outcomes done, keys distinct, fingerprint-identical to uncached jobs=1 evaluation\n" checked

let serve_distinct ~seed ~seconds ~trace =
  if not trace then
    e2e_rounds ~seconds ~call_unit:"Serve.exec calls, one request each" (fun ~slice ~round ~dir ->
        let st, setup_s = Measure.timed (fun () -> distinct_setup ~seed ~dir) in
        (* Each round times its own share of the universe. *)
        let share = Array.length st.d_timed / rounds in
        let p =
          distinct_phase st ~next:(Atomic.make (round * share)) ~limit:((round + 1) * share) ~seconds:slice
            ~traces:false
        in
        let rss = Measure.peak_rss_mb () in
        distinct_gate st p.calls;
        serve_round st.d_off ~setup_s ~rss p)
  else
    Setup.with_dir (fun dir ->
        let st = distinct_setup ~seed ~dir in
        let engine = st.d_off.Setup.engine in
        let next = Atomic.make 0 and limit = Array.length st.d_timed in
        let u = distinct_phase st ~next ~limit ~seconds:(seconds /. 2.0) ~traces:false in
        let t = distinct_phase st ~next ~limit ~seconds:(seconds /. 2.0) ~traces:true in
        (* The last keys of the traced phase are resident: replay them to
           time the hit path this workload never takes. *)
        let recent = Array.of_list (List.filteri (fun i _ -> i < 256) (List.rev_map (fun c -> st.d_timed.(c.idx)) t.calls)) in
        let hits = key_pass engine ~cache:st.d_cache recent in
        let slices, hop = fleet_probe ~seed ~dir st.d_off (Workload.routed_hot st.d_timed) ~seconds:1.5 in
        distinct_gate st (u.calls @ t.calls);
        let layers =
          offline_metrics st.d_off slices
          @ eval_metrics ~source:"evaluated untraced calls" u.calls
          @ phase_metrics t.calls
          @ [ trace_overhead
                ~untraced_qps:(Measure.ratio (float_of_int (done_count u)) u.wall_s)
                ~traced_qps:(Measure.ratio (float_of_int (done_count t)) t.wall_s) ]
          @ cache_metrics ~source:"untraced timed phase" (Option.get u.cache_delta)
              ~hit_us:(status_times Request.Hit 1e6 hits.calls, "replay of 256 resident keys")
              ~miss_ms:(status_times Request.Miss 1000.0 u.calls, "untraced timed phase")
          @ hop
          @ gc_metrics ~requests:(attempted u) ~alloc_words:u.alloc_words u.gc
        in
        let ms = layer_set layers in
        Measure.print_metrics ms;
        (attempted u + attempted t, 0, ms))

let zipf_gate st what calls =
  List.iter
    (fun c ->
      if not (is_done c.outcome) then
        gate "%s: request %d ended %s" what c.idx (Request.outcome_result_name c.outcome.Request.result))
    calls;
  let checked = check_against_uncached st.z_off.Setup.engine what (zipf_sample calls) (zipf_req st) in
  Printf.printf
    "  gate: %d timed outcomes done; a fixed sample of %d fingerprint-identical to uncached jobs=1 evaluation\n"
    (List.length calls) checked

let steady_evictions (p : phase) =
  let r = (Option.get p.cache_delta).Cache.results in
  if r.Cache.evictions = 0 then gate "serve-zipf: no result-cache evictions in steady state";
  Printf.printf "  result cache over the timed phase: hit rate %.4f, %d evictions, %d insertions\n" (Cache.hit_rate r)
    r.Cache.evictions r.Cache.insertions

let serve_zipf ~seed ~seconds ~trace =
  if not trace then
    e2e_rounds ~seconds
      ~call_unit:(Printf.sprintf "Serve.exec calls from %d clients, one request each" zipf_clients)
      (fun ~slice ~round ~dir ->
        let st, setup_s = Measure.timed (fun () -> zipf_setup ~seed ~offset:(round * zipf_round_span) ~dir) in
        let p = zipf_phase st ~seconds:slice ~traces:false in
        let rss = Measure.peak_rss_mb () in
        zipf_gate st "serve-zipf" p.calls;
        steady_evictions p;
        serve_round st.z_off ~setup_s ~rss p)
  else
    Setup.with_dir (fun dir ->
        let st = zipf_setup ~seed ~offset:0 ~dir in
        let u = zipf_phase st ~seconds:(seconds /. 2.0) ~traces:false in
        let t = zipf_phase st ~seconds:(seconds /. 2.0) ~traces:true in
        steady_evictions u;
        let slices, hop = fleet_probe ~seed ~dir st.z_off (Workload.routed_hot st.z_ordered) ~seconds:1.5 in
        zipf_gate st "serve-zipf" (u.calls @ t.calls);
        let layers =
          offline_metrics st.z_off slices
          @ eval_metrics ~source:"untraced misses" u.calls
          @ phase_metrics t.calls
          @ [ trace_overhead
                ~untraced_qps:(Measure.ratio (float_of_int (done_count u)) u.wall_s)
                ~traced_qps:(Measure.ratio (float_of_int (done_count t)) t.wall_s) ]
          @ cache_metrics ~source:"untraced timed phase" (Option.get u.cache_delta)
              ~hit_us:(status_times Request.Hit 1e6 u.calls, "untraced timed phase")
              ~miss_ms:(status_times Request.Miss 1000.0 u.calls, "untraced timed phase")
          @ hop
          @ gc_metrics ~requests:(attempted u) ~alloc_words:u.alloc_words u.gc
        in
        let ms = layer_set layers in
        Measure.print_metrics ms;
        (attempted u + attempted t, 0, ms))

let routed_phase st ~batch_seed ~seconds ~reference ~keep =
  let before = fleet_totals st.r_slices in
  let r =
    routed_loop ~router:st.r_fleet.Setup.router ~seconds
      ~next_batch:(Workload.routed_batches ~seed:batch_seed st.r_hot)
      ~reference ~keep
  in
  let delta = Cache.diff ~before ~after:(fleet_totals st.r_slices) in
  check_routed_phase r delta;
  (r, delta)

let routed_gate ~seed st reference (r : routed) =
  let sample = List.init 64 (fun _ -> Workload.routed_batches ~seed:(seed + 7) st.r_hot ()) in
  check_routed_fingerprints st.r_fleet.Setup.router reference sample;
  Printf.printf
    "  gate: %d routed requests done and field-identical to in-process evaluation; %d sampled batches \
     fingerprint-identical; shard caches only hit\n"
    r.requests (List.length sample)

let routed_hot ~seed ~seconds ~trace =
  if not trace then
    e2e_rounds ~seconds ~call_unit:(Printf.sprintf "Router.exec calls, %d requests each" Workload.batch_size)
      (fun ~slice ~round ~dir ->
        let st, setup_s = Measure.timed (fun () -> routed_setup ~seed ~dir) in
        Fun.protect
          ~finally:(fun () -> routed_teardown st)
          (fun () ->
            (* The gate's reference answers are the benchmark's own work,
               computed between set-up and the first timed call. *)
            let reference = reference_outcomes st.r_off.Setup.engine st.r_hot in
            let r, _ = routed_phase st ~batch_seed:(seed + round) ~seconds:slice ~reference ~keep:false in
            let rss = Measure.peak_rss_mb () in
            routed_gate ~seed st reference r;
            {
              setup_s;
              build_s = st.r_off.Setup.build_s;
              snapshot_bytes = st.r_slices.Setup.total_bytes;
              peak_rss_mb = rss;
              (* Batches are checked between calls; that is not the
                 system's time, so the rate is over the calls' own. *)
              rate = Measure.ratio (float_of_int r.answered) r.busy_s;
              latencies_ms = List.map (fun x -> x *. 1000.0) r.latencies;
              answered = r.answered;
              attempted_reqs = r.requests;
            }))
  else
    Setup.with_dir (fun dir ->
        let st = routed_setup ~seed ~dir in
        let engine = st.r_off.Setup.engine in
        Fun.protect
          ~finally:(fun () -> routed_teardown st)
          (fun () ->
            let reference = reference_outcomes engine st.r_hot in
            let u, delta = routed_phase st ~batch_seed:seed ~seconds:(seconds /. 2.0) ~reference ~keep:true in
            (* Same slices and caches, shards now tracing every request. *)
            routed_teardown st;
            st.r_fleet <- Setup.start ~traces:true st.r_slices;
            let t, _ = routed_phase st ~batch_seed:(seed + 1) ~seconds:(seconds /. 2.0) ~reference ~keep:false in
            routed_gate ~seed st reference u;
            (* The hot keys' own evaluation cost, in process: misses on a
               fresh cache, then hits on it, then traced misses. *)
            let cache = Engine.cache engine in
            let misses = key_pass engine ~cache st.r_hot in
            let hits = key_pass engine ~cache st.r_hot in
            let traced = key_pass engine ~traces:true st.r_hot in
            let layers =
              offline_metrics st.r_off st.r_slices
              @ eval_metrics ~source:"in-process misses over the 512 hot keys" misses.calls
              @ phase_metrics traced.calls
              @ [ trace_overhead
                    ~untraced_qps:(Measure.ratio (float_of_int u.answered) u.busy_s)
                    ~traced_qps:(Measure.ratio (float_of_int t.answered) t.busy_s) ]
              @ cache_metrics ~source:"shard caches, untraced timed phase" delta
                  ~hit_us:(status_times Request.Hit 1e6 hits.calls, "in-process replay of the hot keys")
                  ~miss_ms:(status_times Request.Miss 1000.0 misses.calls, "in-process first pass over the hot keys")
              @ hop_metrics ~source:"untraced timed phase" engine st.r_slices reference st.r_hot u
              @ gc_metrics ~requests:u.requests ~alloc_words:u.r_alloc_words u.r_gc
            in
            let ms = layer_set layers in
            Measure.print_metrics ms;
            (u.requests + t.requests, 0, ms)))

(* --- entry point ----------------------------------------------------------------------------------- *)

let workloads = [ ("serve-distinct", serve_distinct); ("serve-zipf", serve_zipf); ("routed-hot", routed_hot) ]

let run ~workload ~seed ~seconds ~trace =
  match List.assoc_opt workload workloads with
  | None -> Error (Printf.sprintf "unknown workload %S (expected one of: %s)" workload (String.concat ", " (List.map fst workloads)))
  | Some f -> (
      Printf.printf
        "perfbench workload=%s seed=%d seconds=%g trace=%d scale=%g nproc=%d recommended_domain_count=%d ocaml=%s\n%!"
        workload seed seconds (if trace then 1 else 0) Workload.scale (Measure.nproc ())
        (Domain.recommended_domain_count ()) Sys.ocaml_version;
      match f ~seed ~seconds ~trace with
      | attempted, failed, ms -> Ok (Measure.result_line ~attempted ~failed ms)
      | exception Gate msg -> Error ("correctness gate failed: " ^ msg))
