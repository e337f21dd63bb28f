(* Kernels — columnar int-specialized join execution vs the generic
   Volcano operators.

   Two tiers, both single-threaded:

   - a join microbenchmark over synthetic int-keyed tables sized by
     --scale: the same [Physical] plan executed with [Op_kernel]
     disabled (generic hash / index-NL join over boxed [Value.t] keys)
     and enabled (a row-number pipeline probing [Int_table] chains with
     keys read straight off the table's int lane).  Results and work counters must match exactly;
     the regression gate holds the median speedup above
     KERNELS_MIN_SPEEDUP.
   - the serve batch: the jobs = 1 mixed workload fingerprinted with
     kernels off and on.  [Serve.fingerprint] digests ranked lists,
     scores and per-query counters, so this is the end-to-end proof
     that kernel execution is observationally invisible.

   Reports to BENCH_KERNELS.json. *)

open Bench_common
module Obs = Topo_obs
module Serve = Topo_core.Serve
module Sql = Topo_sql
module Op_kernel = Sql.Op_kernel

let median times =
  let a = Array.of_list times in
  Array.sort compare a;
  a.(Array.length a / 2)

(* --- synthetic int-keyed join workload ---------------------------------- *)

(* Build side: [build_n] rows, keys dense in [0, build_n/4) so chains
   average four entries.  Probe side: [2 * build_n] rows with keys spread
   over ten times the build's key range — a ~10% hit rate, so the cost
   under test is the per-probe work (key extraction, hashing, lookup),
   not output materialization. *)
let micro_catalog build_n =
  let cat = Sql.Catalog.create () in
  let schema =
    Sql.Schema.make
      [ { Sql.Schema.name = "K"; ty = Sql.Schema.TInt }; { Sql.Schema.name = "V"; ty = Sql.Schema.TInt } ]
  in
  let prng = Topo_util.Prng.create config.seed in
  let key_range = max 1 (build_n / 4) in
  let build = Sql.Catalog.create_table cat ~name:"Build" ~schema () in
  for i = 0 to build_n - 1 do
    Sql.Table.insert build [| Sql.Value.Int (Topo_util.Prng.int prng key_range); Sql.Value.Int i |]
  done;
  let probe = Sql.Catalog.create_table cat ~name:"Probe" ~schema () in
  for i = 0 to (2 * build_n) - 1 do
    Sql.Table.insert probe
      [| Sql.Value.Int (Topo_util.Prng.int prng (10 * key_range)); Sql.Value.Int i |]
  done;
  cat

let hash_plan =
  Sql.Physical.HashJoin
    {
      left = Sql.Physical.Scan { table = "Probe"; alias = None; pred = None };
      right = Sql.Physical.Scan { table = "Build"; alias = None; pred = None };
      left_cols = [| 0 |];
      right_cols = [| 0 |];
      residual = None;
    }

let index_plan =
  Sql.Physical.IndexNL
    {
      left = Sql.Physical.Scan { table = "Probe"; alias = None; pred = None };
      table = "Build";
      alias = None;
      table_cols = [ "K" ];
      left_cols = [| 0 |];
      pred = None;
      residual = None;
    }

(* One timed execution: drain the iterator, count output rows, capture
   the work counters.  The row count and counters (not the boxed tuples)
   are the cross-mode identity check, so timing is not dominated by
   keeping giant lists alive. *)
let execute cat plan =
  let (), counters =
    Sql.Iterator.Counters.with_scope (fun () ->
        Sql.Iterator.iter (fun _ _ -> ()) (Sql.Physical.lower cat plan))
  in
  counters

let time_mode cat plan ~kernels ~runs =
  let samples =
    List.init runs (fun _ ->
        Op_kernel.with_kernels kernels (fun () ->
            let t0 = Unix.gettimeofday () in
            let counters = execute cat plan in
            (Unix.gettimeofday () -. t0, counters)))
  in
  (median (List.map fst samples), snd (List.hd samples))

let micro_speedup cat plan name ~runs =
  let generic_s, generic_counters = time_mode cat plan ~kernels:false ~runs in
  let kernel_s, kernel_counters = time_mode cat plan ~kernels:true ~runs in
  if generic_counters <> kernel_counters then
    failwith (name ^ ": kernel execution changed the work counters");
  let full = Op_kernel.with_kernels false (fun () -> Sql.Physical.run cat plan) in
  let fused = Op_kernel.with_kernels true (fun () -> Sql.Physical.run cat plan) in
  if full <> fused then failwith (name ^ ": kernel execution changed the join output");
  let speedup = if kernel_s > 0.0 then Some (generic_s /. kernel_s) else None in
  Printf.printf "%-13s generic %.4fs  kernel %.4fs  %s\n" name generic_s kernel_s
    (match speedup with
    | Some s -> Printf.sprintf "%.2fx" s
    | None -> "under clock resolution");
  let json =
    Obs.Json.Obj
      [
        ("generic_s", Obs.Json.Num generic_s);
        ("kernel_s", Obs.Json.Num kernel_s);
        ("speedup", match speedup with Some s -> Obs.Json.Num s | None -> Obs.Json.Null);
        ("tuples", Obs.Json.int generic_counters.Sql.Iterator.Counters.tuples);
      ]
  in
  (speedup, json)

(* --- serve-level identity ------------------------------------------------ *)

let serve_once engine requests =
  let t0 = Unix.gettimeofday () in
  let outcomes = (Serve.exec (Serve.config ~jobs:1 ()) engine requests).Serve.outcomes in
  (Unix.gettimeofday () -. t0, Digest.to_hex (Digest.string (Serve.fingerprint outcomes)))

let run () =
  Console.section "Kernels — int-specialized columnar execution vs generic operators";
  let runs = max 1 config.runs in
  let build_n = max 20_000 (int_of_float (400_000.0 *. config.scale)) in
  Printf.printf "microbench: %d build rows, %d probe rows, %d run(s)\n" build_n (2 * build_n) runs;
  let cat = micro_catalog build_n in
  (match Sql.Physical.kernel_site cat hash_plan with
  | Some Sql.Physical.Kernel_hash_join -> ()
  | _ -> failwith "kernels: the hash microbench plan is not a pipeline step");
  let hash_speedup, hash_json = micro_speedup cat hash_plan "hash join" ~runs in
  let index_speedup, index_json = micro_speedup cat index_plan "index NL join" ~runs in
  let speedup =
    match (hash_speedup, index_speedup) with
    | Some h, Some i -> Some (Float.min h i)
    | _ -> None
  in
  let engine, _ = engine_l3 () in
  let requests = Exp_serve.mixed_workload engine in
  let generic_serve =
    List.init runs (fun _ -> Op_kernel.with_kernels false (fun () -> serve_once engine requests))
  in
  let kernel_serve =
    List.init runs (fun _ -> Op_kernel.with_kernels true (fun () -> serve_once engine requests))
  in
  let fp_generic = snd (List.hd generic_serve) in
  let identical =
    List.for_all (fun (_, fp) -> fp = fp_generic) (generic_serve @ kernel_serve)
  in
  let serve_generic_s = median (List.map fst generic_serve) in
  let serve_kernel_s = median (List.map fst kernel_serve) in
  Printf.printf "serve (jobs=1) generic %.3fs  kernel %.3fs%s\n" serve_generic_s serve_kernel_s
    (if serve_kernel_s > 0.0 then Printf.sprintf "  %.2fx" (serve_generic_s /. serve_kernel_s)
     else "");
  Printf.printf "serve fingerprint           %s\n"
    (if identical then "= generic execution" else "MISMATCH");
  if not identical then
    failwith "kernels: serve batch fingerprints differ between kernel and generic execution";
  let json =
    Obs.Json.Obj
      [
        ("scale", Obs.Json.Num config.scale);
        ("seed", Obs.Json.int config.seed);
        ("runs", Obs.Json.int runs);
        ("build_rows", Obs.Json.int build_n);
        ("probe_rows", Obs.Json.int (2 * build_n));
        ("hash_join", hash_json);
        ("index_nl", index_json);
        (* The gated number: the smaller of the two kernels' speedups. *)
        ("speedup", match speedup with Some s -> Obs.Json.Num s | None -> Obs.Json.Null);
        ("serve_generic_s", Obs.Json.Num serve_generic_s);
        ("serve_kernel_s", Obs.Json.Num serve_kernel_s);
        ("identical", Obs.Json.Bool identical);
        ("fingerprint", Obs.Json.Str fp_generic);
      ]
  in
  let oc = open_out "BENCH_KERNELS.json" in
  output_string oc (Obs.Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH_KERNELS.json"
