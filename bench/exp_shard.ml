(* Sharded serving — the distributed tier's correctness and overhead.

   Slices the l = 3 engine into pair-partitioned shard snapshots, boots
   one in-process shard server per slice on a Unix socket, and replays a
   mixed nine-method workload over every entity-set pair through the
   scatter-gather router at a sweep of shard counts.  The hard gate is
   fingerprint identity: the routed batch must be bit-identical to a
   single-process [Serve.exec ~jobs:1] over the unsliced engine at every
   shard count — distribution may only move work, never change answers.

   The timed sweep reports the median routed-batch wall time and
   throughput per shard count next to the in-process baseline, so
   BENCH_SHARD.json records what the wire protocol and scatter-gather
   hop cost on this machine (check_regress gates identity
   unconditionally and holds routed throughput above a loose
   SHARD_MIN_RATIO floor of the in-process baseline). *)

open Bench_common
module Obs = Topo_obs
module Serve = Topo_core.Serve
module Snapshot = Topo_core.Snapshot
module Shard = Topo_core.Shard
module Router = Topo_core.Router
module Wire = Topo_core.Wire

let shard_counts = [ 1; 2; 4 ]
let shard_jobs = 2

(* All nine methods over every precomputed pair, rotating ranking
   schemes — every shard of every sweep point sees traffic. *)
let workload (engine : Engine.t) =
  let catalog = engine.Engine.ctx.Topo_core.Context.catalog in
  let schemes = [ Ranking.Freq; Ranking.Rare; Ranking.Domain ] in
  List.concat_map
    (fun (t1, t2) ->
      List.mapi
        (fun i method_ ->
          Request.make
            ~scheme:(List.nth schemes (i mod 3))
            ~k:10 method_
            (Query.make (Query.endpoint catalog t1) (Query.endpoint catalog t2)))
        Engine.all_methods)
    main_pairs

let with_temp_dir f =
  let dir = Filename.temp_file "toposearch_shards" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let qps requests median_s =
  if median_s > 0.0 then Some (float_of_int requests /. median_s) else None

let fmt_qps = function Some q -> Printf.sprintf "%.1f" q | None -> "-"

let json_qps = function Some q -> Obs.Json.Num q | None -> Obs.Json.Null

(* One sweep point: slice, boot a fleet, verify identity, time the
   routed batch.  Returns (median_s, bytes) — raises on any fingerprint
   divergence, which is the experiment's reason to exist. *)
let run_point engine requests ~baseline_fp ~shards =
  with_temp_dir (fun dir ->
      let manifest, bytes = Snapshot.save_sharded engine ~dir ~shards in
      let addrs =
        Array.init shards (fun k ->
            Wire.Unix_sock (Filename.concat dir (Printf.sprintf "s%d.sock" k)))
      in
      let fleet =
        Array.init shards (fun k ->
            Shard.start
              ~serve:(Serve.config ~jobs:shard_jobs ())
              ~shard:k addrs.(k)
              (Snapshot.load (Snapshot.shard_path ~dir k)))
      in
      Fun.protect
        ~finally:(fun () -> Array.iter Shard.stop fleet)
        (fun () ->
          let router = Router.create ~manifest ~addrs () in
          Fun.protect
            ~finally:(fun () -> Router.close router)
            (fun () ->
              (* Warm pass doubles as the correctness gate. *)
              let outcomes = Router.exec router requests in
              let fp = Serve.fingerprint outcomes in
              if fp <> baseline_fp then
                failwith
                  (Printf.sprintf
                     "shard: %d-shard routed batch fingerprint %s differs from single-process %s"
                     shards fp baseline_fp);
              List.iter
                (fun (o : Request.outcome) ->
                  match o.Request.result with
                  | Topo_core.Request.Failed _ ->
                      failwith "shard: routed batch contains a Failed outcome"
                  | _ -> ())
                outcomes;
              let _, median =
                Topo_util.Timer.repeat_median ~runs:config.runs (fun () ->
                    ignore (Router.exec router requests))
              in
              (median, bytes))))

let run () =
  Console.section "Sharded serving — scatter-gather vs a single process";
  let engine, _ = engine_l3 () in
  let requests = workload engine in
  let n = List.length requests in
  let baseline = Serve.exec (Serve.config ~jobs:1 ()) engine requests in
  let baseline_fp = Serve.fingerprint baseline.Serve.outcomes in
  let _, baseline_median =
    Topo_util.Timer.repeat_median ~runs:config.runs (fun () ->
        ignore (Serve.exec (Serve.config ~jobs:1 ()) engine requests))
  in
  Printf.printf
    "%d requests (9 methods x %d pairs); in-process jobs=1 baseline %.3fs (%s qps); %d jobs per \
     shard\n\n"
    n (List.length main_pairs) baseline_median
    (fmt_qps (qps n baseline_median))
    shard_jobs;
  Printf.printf "%-8s %-12s %-10s %-10s %-10s\n" "shards" "bytes" "median_s" "qps" "vs_base";
  let sweep =
    List.map
      (fun shards ->
        let median, bytes = run_point engine requests ~baseline_fp ~shards in
        let ratio =
          match (qps n median, qps n baseline_median) with
          | Some q, Some b when b > 0.0 -> Printf.sprintf "%.2fx" (q /. b)
          | _ -> "-"
        in
        Printf.printf "%-8d %-12d %-10.3f %-10s %-10s\n" shards bytes median
          (fmt_qps (qps n median))
          ratio;
        (shards, bytes, median))
      shard_counts
  in
  print_newline ();
  print_endline "ok: every shard count bit-identical to the single-process batch";
  let json =
    Obs.Json.Obj
      [
        ("scale", Obs.Json.Num config.scale);
        ("seed", Obs.Json.int config.seed);
        ("requests", Obs.Json.int n);
        ("pairs", Obs.Json.int (List.length main_pairs));
        ("shard_jobs", Obs.Json.int shard_jobs);
        ("identical", Obs.Json.Bool true);
        ( "baseline",
          Obs.Json.Obj
            [
              ("median_s", Obs.Json.Num baseline_median);
              ("qps", json_qps (qps n baseline_median));
            ] );
        ( "sweep",
          Obs.Json.Arr
            (List.map
               (fun (shards, bytes, median) ->
                 Obs.Json.Obj
                   [
                     ("shards", Obs.Json.int shards);
                     ("bytes", Obs.Json.int bytes);
                     ("median_s", Obs.Json.Num median);
                     ("qps", json_qps (qps n median));
                   ])
               sweep) );
      ]
  in
  let oc = open_out "BENCH_SHARD.json" in
  output_string oc (Obs.Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_SHARD.json"
