(* Latency — open-loop load generation against the serving tier.

   Replays a Zipf-weighted nine-method request mix at a sweep of target
   arrival rates (Poisson inter-arrivals from the seeded Prng), open
   loop: the generator never waits for responses, so queueing delay shows
   up in the measured latency instead of silently throttling the offered
   load.  Latencies are coordinated-omission-corrected — each request is
   charged from its *intended* arrival instant, not from when an
   overloaded server got around to reading it.

   Each rate point runs with a bounded admission queue and a per-request
   wall deadline, records per-request latency into a Topo_util.Hdr
   histogram, and reports p50/p95/p99/p999, the outcome accounting
   (completed / partial / expired / rejected-overload / failed) and
   achieved-vs-offered rate to BENCH_LATENCY.json for the regression
   gate (check_regress: zero failures, accounting invariants, p99 of the
   lowest rate point under LATENCY_MAX_P99_MS).

   The rate sweep is anchored to a closed-loop calibration of this
   machine: points at 0.4x / 0.8x / 1.6x the calibrated throughput show
   the uncongested, near-saturation and overload regimes.  Rates are
   floored so one point never schedules more than ~30 s of arrivals —
   hosted CI stays fast even when calibration lands low. *)

open Bench_common
module Obs = Topo_obs
module Serve = Topo_core.Serve
module Hdr = Topo_util.Hdr
module Prng = Topo_util.Prng
module Zipf = Topo_util.Zipf

let requests_per_point = 240
let deadline_s = 2.0
let max_queue = 64
let zipf_s = 1.0
let rate_fractions = [ 0.4; 0.8; 1.6 ]

(* The serve bench's mixed workload: all nine methods over a keyword /
   selectivity grid on two entity-set pairs. *)
let base_workload engine =
  let catalog = (engine : Engine.t).Engine.ctx.Topo_core.Context.catalog in
  let schemes = [ Ranking.Freq; Ranking.Rare; Ranking.Domain ] in
  let pd_queries =
    List.map
      (fun kw ->
        Query.make
          (if kw = "" then Query.endpoint catalog "Protein"
           else Query.keyword catalog "Protein" ~col:"desc" ~kw)
          (Query.endpoint catalog "DNA"))
      [ "kinase"; "enzyme"; "" ]
  in
  let pi_queries =
    List.map
      (fun (sel, _) -> grid_query catalog ~protein_sel:sel ~interaction_sel:sel)
      selectivities
  in
  let queries = pd_queries @ pi_queries in
  List.concat_map
    (fun method_ ->
      List.mapi
        (fun i q -> Request.make ~scheme:(List.nth schemes (i mod 3)) ~k:10 method_ q)
        queries)
    Engine.all_methods

(* Closed-loop calibration: the batch throughput at full parallelism
   anchors the open-loop rate sweep to this machine's capacity. *)
let calibrate engine base =
  let stats = (Serve.exec Serve.default engine base).Serve.stats in
  match stats.Serve.throughput_qps with
  | Some qps when qps > 0.0 -> qps
  | _ -> 2000.0 (* under clock resolution: any plausible anchor works *)

(* A Poisson arrival schedule at [rate]/s over a Zipf-weighted pick from
   [base]: heavy ranks repeat often (cache-friendly head), the tail keeps
   every method in play.  Deterministic from the seed. *)
let arrivals ~rng ~rate base =
  let pool = Array.of_list base in
  Prng.shuffle rng pool (* decouple Zipf rank from method order *);
  let zipf = Zipf.create ~n:(Array.length pool) ~s:zipf_s in
  let at = ref 0.0 in
  let instants = Array.make requests_per_point 0.0 in
  let requests = ref [] in
  for i = 0 to requests_per_point - 1 do
    let u = Prng.float rng in
    at := !at +. (-.log (1.0 -. u) /. rate);
    instants.(i) <- !at;
    requests := pool.(Zipf.sample zipf rng - 1) :: !requests
  done;
  (instants, List.rev !requests)

let ms_opt h q =
  if Hdr.count h = 0 then None else Some (float_of_int (Hdr.quantile h q) /. 1e6)

let fmt_ms = function Some v -> Printf.sprintf "%.1f" v | None -> "-"

let fmt_rate = function Some r -> Printf.sprintf "%.1f" r | None -> "-"

let run () =
  Console.section "Latency — open-loop load at a sweep of arrival rates";
  let engine, _ = engine_l3 () in
  let base = base_workload engine in
  let base_qps = calibrate engine base in
  (* Floor each point's rate so its arrival schedule spans <= ~30 s. *)
  let min_rate = float_of_int requests_per_point /. 30.0 in
  let points =
    List.map (fun f -> (f, Float.max min_rate (f *. base_qps))) rate_fractions
  in
  Printf.printf
    "calibrated closed-loop throughput %.1f qps; %d Poisson arrivals per point, Zipf(s=%.1f) \
     over %d base requests, deadline %.1fs, queue bound %d\n\n"
    base_qps requests_per_point zipf_s (List.length base) deadline_s max_queue;
  Printf.printf "%-9s %-9s %-9s %-9s %-26s %-8s %-8s %-8s %-8s\n" "offered" "achieved" "admitted"
    "rejected" "done/partial/expired/fail" "p50_ms" "p95_ms" "p99_ms" "p999_ms";
  let results =
    List.mapi
      (fun i (fraction, rate) ->
        let rng = Prng.create (config.seed + (1000 * (i + 1))) in
        let instants, reqs = arrivals ~rng ~rate base in
        let r =
          Serve.exec
            (Serve.config
               ~mode:
                 (Serve.Open
                    (Serve.open_config ~max_queue ~deadline_s
                       ~schedule:(fun i -> instants.(i))
                       ()))
               ())
            engine reqs
        in
        let timed = Option.get r.Serve.timed and stats = Option.get r.Serve.open_stats in
        let h = Hdr.create () in
        List.iter
          (fun (t : Serve.timed) ->
            match Topo_core.Request.answered t.Serve.timed_outcome.Request.result with
            | Some _ -> Hdr.record h (int_of_float (t.Serve.latency_s *. 1e9))
            | None -> ())
          timed;
        if stats.Serve.admitted + stats.Serve.rejected_overload <> stats.Serve.offered then
          failwith "latency: admitted + rejected_overload <> offered";
        if
          stats.Serve.completed + stats.Serve.partial + stats.Serve.failed + stats.Serve.expired
          <> stats.Serve.admitted
        then failwith "latency: outcome counts do not add up to admitted";
        Printf.printf "%-9.1f %-9s %-9d %-9d %-26s %-8s %-8s %-8s %-8s\n" rate
          (fmt_rate stats.Serve.achieved_rate)
          stats.Serve.admitted stats.Serve.rejected_overload
          (Printf.sprintf "%d/%d/%d/%d" stats.Serve.completed stats.Serve.partial
             stats.Serve.expired stats.Serve.failed)
          (fmt_ms (ms_opt h 0.50)) (fmt_ms (ms_opt h 0.95)) (fmt_ms (ms_opt h 0.99))
          (fmt_ms (ms_opt h 0.999));
        (fraction, rate, stats, h))
      points
  in
  let failed_total =
    List.fold_left (fun acc (_, _, s, _) -> acc + s.Serve.failed) 0 results
  in
  if failed_total > 0 then
    failwith (Printf.sprintf "latency: %d requests failed with exceptions" failed_total);
  print_newline ();
  let json =
    Obs.Json.Obj
      [
        ("scale", Obs.Json.Num config.scale);
        ("seed", Obs.Json.int config.seed);
        ("requests_per_point", Obs.Json.int requests_per_point);
        ("zipf_s", Obs.Json.Num zipf_s);
        ("deadline_s", Obs.Json.Num deadline_s);
        ("max_queue", Obs.Json.int max_queue);
        ("calibrated_qps", Obs.Json.Num base_qps);
        ("recommended_domains", Obs.Json.int (Domain.recommended_domain_count ()));
        ( "points",
          Obs.Json.Arr
            (List.map
               (fun (fraction, rate, (s : Serve.open_stats), h) ->
                 Obs.Json.Obj
                   [
                     ("fraction_of_calibrated", Obs.Json.Num fraction);
                     ("offered_rate_target", Obs.Json.Num rate);
                     ("jobs", Obs.Json.int s.Serve.open_jobs);
                     ("offered", Obs.Json.int s.Serve.offered);
                     ("admitted", Obs.Json.int s.Serve.admitted);
                     ("rejected_overload", Obs.Json.int s.Serve.rejected_overload);
                     ("expired", Obs.Json.int s.Serve.expired);
                     ("completed", Obs.Json.int s.Serve.completed);
                     ("partial", Obs.Json.int s.Serve.partial);
                     ("failed", Obs.Json.int s.Serve.failed);
                     ("wall_s", Obs.Json.Num s.Serve.wall_s);
                     ( "offered_rate",
                       match s.Serve.offered_rate with
                       | Some r -> Obs.Json.Num r
                       | None -> Obs.Json.Null );
                     ( "achieved_rate",
                       match s.Serve.achieved_rate with
                       | Some r -> Obs.Json.Num r
                       | None -> Obs.Json.Null );
                     ("latency", Obs.Hdr_json.summary_ms h);
                     ("buckets", Obs.Hdr_json.buckets h);
                   ])
               results) );
      ]
  in
  let oc = open_out "BENCH_LATENCY.json" in
  output_string oc (Obs.Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_LATENCY.json"
