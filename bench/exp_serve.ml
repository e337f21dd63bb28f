(* Serve — the online serving tier across OCaml 5 domains.

   Builds the main l = 3 engine once, assembles a mixed workload that
   exercises all nine methods (three ranking schemes, three predicate
   selectivities, two entity-set pairs), and serves the batch with jobs
   in {1, 2, 4, 8}.  Asserts that every jobs value yields a bit-identical
   outcome fingerprint — ranked lists with scores, strategy choices and
   per-query isolated counters — and reports median batch time, queries
   per second and speedup to BENCH_SERVE.json.

   As with the parallel-build sweep, the speedup column only means
   something on multi-core machines; on single-core runners the sweep is
   clamped to the recommended domain count (jobs=1 always stays) and the
   JSON records [clamped: true] so the regression gate skips throughput
   thresholds.  The determinism assertion is the part that must hold
   everywhere. *)

open Bench_common
module Obs = Topo_obs
module Serve = Topo_core.Serve

let jobs_sweep () =
  List.filter (fun j -> j = 1 || j <= Domain.recommended_domain_count ()) [ 1; 2; 4; 8 ]

(* How many times the base mixed batch is repeated per serve call: enough
   work that pool startup and scheduling noise do not dominate. *)
let batch_repeat = 3

let mixed_workload engine =
  let catalog = (engine : Engine.t).Engine.ctx.Topo_core.Context.catalog in
  let schemes = [ Ranking.Freq; Ranking.Rare; Ranking.Domain ] in
  let pd_queries =
    (* Protein-DNA: keyword grid on the protein side. *)
    List.map
      (fun kw1 ->
        Query.make
          (if kw1 = "" then Query.endpoint catalog "Protein"
           else Query.keyword catalog "Protein" ~col:"desc" ~kw:kw1)
          (Query.endpoint catalog "DNA"))
      [ "kinase"; "enzyme"; "" ]
  in
  let pi_queries =
    (* Protein-Interaction: the Table 2 selectivity grid. *)
    List.map
      (fun (sel, _) -> grid_query catalog ~protein_sel:sel ~interaction_sel:sel)
      selectivities
  in
  let queries = pd_queries @ pi_queries in
  List.concat_map
    (fun method_ ->
      List.mapi
        (fun i q ->
          Request.make ~scheme:(List.nth schemes (i mod 3)) ~k:10 method_ q)
        queries)
    Engine.all_methods

let median times =
  let a = Array.of_list times in
  Array.sort compare a;
  a.(Array.length a / 2)

let run () =
  Console.section "Serve — concurrent online queries across OCaml 5 domains";
  let engine, _ = engine_l3 () in
  let base = mixed_workload engine in
  let requests = List.concat (List.init batch_repeat (fun _ -> base)) in
  let runs = max 1 config.runs in
  let sweep = jobs_sweep () in
  let clamped = List.length sweep < 4 in
  Printf.printf
    "%d-query mixed batch (all nine methods x schemes x selectivities, x%d), %d run(s) per jobs \
     value, recommended domains: %d%s\n\n"
    (List.length requests) batch_repeat runs
    (Domain.recommended_domain_count ())
    (if clamped then " (sweep clamped)" else "");
  let results =
    List.map
      (fun jobs ->
        let samples =
          List.init runs (fun _ ->
              let r = Serve.exec (Serve.config ~jobs ()) engine requests in
              (Digest.to_hex (Digest.string (Serve.fingerprint r.Serve.outcomes)), r.Serve.stats))
        in
        let fp = fst (List.hd samples) in
        List.iter
          (fun (fp', _) -> if fp' <> fp then failwith "serve is not deterministic across runs")
          samples;
        let med = median (List.map (fun (_, s) -> s.Serve.elapsed_s) samples) in
        let errors = (snd (List.hd samples)).Serve.errors in
        (jobs, fp, med, errors))
      sweep
  in
  let base_fp, base_t =
    match results with (1, fp, t, _) :: _ -> (fp, t) | _ -> assert false
  in
  let identical = List.for_all (fun (_, fp, _, _) -> fp = base_fp) results in
  (* Below clock resolution there is no measurable throughput: print a
     dash and write JSON null, never a division by zero. *)
  let qps t = if t > 0.0 then Some (float_of_int (List.length requests) /. t) else None in
  Printf.printf "%-6s %-10s %-10s %-8s %s\n" "jobs" "median_s" "qps" "speedup" "fingerprint";
  List.iter
    (fun (jobs, fp, t, _) ->
      Printf.printf "%-6d %-10.3f %-10s %-8s %s%s\n" jobs t
        (match qps t with Some q -> Printf.sprintf "%.1f" q | None -> "-")
        (if t > 0.0 then Printf.sprintf "%.2f" (base_t /. t) else "-")
        fp
        (if fp = base_fp then "" else "  MISMATCH"))
    results;
  if not identical then
    failwith "serve tier is not deterministic: fingerprints differ across jobs values";
  if List.exists (fun (_, _, _, errors) -> errors > 0) results then
    failwith "serve tier reported per-query errors on a healthy workload";
  Printf.printf "\nall %d batches bit-identical to jobs=1\n" (List.length results);
  (* Warm-vs-cold cache sweep: a fresh result+plan cache per jobs value,
     one cold pass to populate it, one warm pass over the same cache.
     Both must fingerprint bit-identically to the uncached sweep above —
     the cache may only change speed, never answers.  Intra-batch repeats
     (batch_repeat > 1) give even the cold pass some hits. *)
  Console.section "Serve — result cache, warm vs cold";
  let tier_rate (s : Serve.stats) =
    match s.Serve.cache with
    | Some c -> Topo_core.Cache.hit_rate c.Topo_core.Cache.results
    | None -> 0.0
  in
  let cache_results =
    List.map
      (fun jobs ->
        let cache = Engine.cache engine in
        let serve () =
          let t0 = Unix.gettimeofday () in
          let r = Serve.exec (Serve.config ~jobs ~cache ()) engine requests in
          let t = Unix.gettimeofday () -. t0 in
          (Digest.to_hex (Digest.string (Serve.fingerprint r.Serve.outcomes)), r.Serve.stats, t)
        in
        let fp_cold, stats_cold, cold_s = serve () in
        let fp_warm, stats_warm, warm_s = serve () in
        (jobs, fp_cold, cold_s, tier_rate stats_cold, fp_warm, warm_s, tier_rate stats_warm))
      (List.filter (fun j -> j = 1 || j <= Domain.recommended_domain_count ()) [ 1; 4 ])
  in
  let cache_identical =
    List.for_all (fun (_, fpc, _, _, fpw, _, _) -> fpc = base_fp && fpw = base_fp) cache_results
  in
  Printf.printf "%-6s %-9s %-9s %-9s %-10s %-10s %s\n" "jobs" "cold_s" "warm_s" "speedup"
    "cold_hits" "warm_hits" "fingerprints";
  List.iter
    (fun (jobs, fpc, cold_s, hr_c, fpw, warm_s, hr_w) ->
      Printf.printf "%-6d %-9.3f %-9.3f %-9.2f %-10s %-10s %s\n" jobs cold_s warm_s
        (cold_s /. warm_s)
        (Printf.sprintf "%.0f%%" (100.0 *. hr_c))
        (Printf.sprintf "%.0f%%" (100.0 *. hr_w))
        (if fpc = base_fp && fpw = base_fp then "= uncached" else "MISMATCH"))
    cache_results;
  if not cache_identical then
    failwith "cached serve is not transparent: fingerprints differ from the uncached run";
  let min_warm_rate =
    List.fold_left (fun acc (_, _, _, _, _, _, hr_w) -> min acc hr_w) 1.0 cache_results
  in
  if min_warm_rate < 0.5 then
    failwith
      (Printf.sprintf "warm-pass hit rate %.0f%% below the 50%% floor" (100.0 *. min_warm_rate));
  Printf.printf "\ncached runs bit-identical to uncached; warm hit rate >= %.0f%%\n"
    (100.0 *. min_warm_rate);
  let json =
    Obs.Json.Obj
      [
        ("scale", Obs.Json.Num config.scale);
        ("seed", Obs.Json.int config.seed);
        ("runs", Obs.Json.int runs);
        ("queries", Obs.Json.int (List.length requests));
        ("batch_repeat", Obs.Json.int batch_repeat);
        ("recommended_domains", Obs.Json.int (Domain.recommended_domain_count ()));
        ("clamped", Obs.Json.Bool clamped);
        ("identical", Obs.Json.Bool identical);
        ("fingerprint", Obs.Json.Str base_fp);
        ( "sweep",
          Obs.Json.Arr
            (List.map
               (fun (jobs, _, t, errors) ->
                 Obs.Json.Obj
                   [
                     ("jobs", Obs.Json.int jobs);
                     ("median_s", Obs.Json.Num t);
                     ( "qps",
                       match qps t with Some q -> Obs.Json.Num q | None -> Obs.Json.Null );
                     ( "speedup",
                       if t > 0.0 then Obs.Json.Num (base_t /. t) else Obs.Json.Null );
                     ("errors", Obs.Json.int errors);
                   ])
               results) );
        ( "cache",
          Obs.Json.Obj
            [
              ("identical", Obs.Json.Bool cache_identical);
              ("warm_hit_rate", Obs.Json.Num min_warm_rate);
              ( "sweep",
                Obs.Json.Arr
                  (List.map
                     (fun (jobs, _, cold_s, hr_c, _, warm_s, hr_w) ->
                       Obs.Json.Obj
                         [
                           ("jobs", Obs.Json.int jobs);
                           ("cold_s", Obs.Json.Num cold_s);
                           ("warm_s", Obs.Json.Num warm_s);
                           ( "speedup",
                             if warm_s > 0.0 then Obs.Json.Num (cold_s /. warm_s)
                             else Obs.Json.Null );
                           ("cold_hit_rate", Obs.Json.Num hr_c);
                           ("warm_hit_rate", Obs.Json.Num hr_w);
                         ])
                     cache_results) );
            ] );
      ]
  in
  let oc = open_out "BENCH_SERVE.json" in
  output_string oc (Obs.Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_SERVE.json"
