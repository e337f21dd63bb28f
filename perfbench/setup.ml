(* The offline set-up every workload shares, and the in-process shard
   fleet routed-hot serves from.  Everything is timed from outside,
   around calls into the modules' public functions. *)

module Engine = Topo_core.Engine
module Snapshot = Topo_core.Snapshot
module Serve = Topo_core.Serve
module Shard = Topo_core.Shard
module Router = Topo_core.Router
module Wire = Topo_core.Wire
module Cache = Topo_core.Cache
module Compute = Topo_core.Compute
module Topology = Topo_core.Topology

(* --- scratch directory inside the working directory -------------------- *)

let scratch_root = ".perfbench-run"

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let dir_counter = ref 0

(* A fresh directory per set-up, removed again when [f] returns or
   raises.  Relative paths keep socket names short. *)
let with_dir f =
  if not (Sys.file_exists scratch_root) then Unix.mkdir scratch_root 0o700;
  incr dir_counter;
  let dir = Filename.concat scratch_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !dir_counter) in
  remove_tree dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir;
      try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* --- offline phase -------------------------------------------------------- *)

type offline = {
  engine : Engine.t;  (** loaded back from the snapshot; serving uses this one *)
  build_s : float;
  save_s : float;
  load_s : float;
  snapshot_bytes : int;
  build_stats : (string * string * Compute.stats) list;
  topologies : int;
}

let params ~scale = Biozon.Generator.scale scale Biozon.Generator.default

(* Generate, build (jobs = 1), save, load.  Nothing refers to the built
   engine after the save; serving uses the loaded one. *)
let offline ?(scale = Workload.scale) ~dir () =
  let catalog = Biozon.Generator.generate (params ~scale) in
  let built, build_s =
    Measure.timed (fun () ->
        Engine.build catalog ~pairs:Workload.pairs ~l:Workload.l
          ~pruning_threshold:Workload.pruning_threshold ~jobs:1 ())
  in
  let build_stats = built.Engine.build_stats in
  let topologies = Topology.count built.Engine.ctx.Topo_core.Context.registry in
  let path = Filename.concat dir "topo.snap" in
  let snapshot_bytes, save_s = Measure.timed (fun () -> Snapshot.save built ~path) in
  let engine, load_s = Measure.timed (fun () -> Snapshot.load path) in
  { engine; build_s; save_s; load_s; snapshot_bytes; build_stats; topologies }

let build_counts o =
  let sum f = List.fold_left (fun acc (_, _, s) -> acc + f s) 0 o.build_stats in
  ( sum (fun s -> s.Compute.instance_paths),
    sum (fun s -> s.Compute.unions),
    sum (fun s -> s.Compute.capped_pairs),
    o.topologies )

(* --- shard fleet ---------------------------------------------------------- *)

let shards = 2

type slices = {
  manifest : Snapshot.manifest;
  engines : Engine.t array;
  caches : Cache.t array;  (** one result + plan cache per shard, default capacities *)
  addrs : Wire.addr array;
  total_bytes : int;
  max_bytes : int;
  slice_s : float;
  slice_load_s : float;
}

let slice ~dir engine =
  let (manifest, total_bytes), slice_s =
    Measure.timed (fun () -> Snapshot.save_sharded engine ~dir ~shards)
  in
  let max_bytes =
    List.fold_left max 0
      (List.init shards (fun k -> (Unix.stat (Snapshot.shard_path ~dir k)).Unix.st_size))
  in
  let engines, slice_load_s =
    Measure.timed (fun () -> Array.init shards (fun k -> Snapshot.load (Snapshot.shard_path ~dir k)))
  in
  {
    manifest;
    engines;
    caches = Array.map (fun e -> Engine.cache e) engines;
    addrs = Array.init shards (fun k -> Wire.Unix_sock (Filename.concat dir (Printf.sprintf "s%d.sock" k)));
    total_bytes;
    max_bytes;
    slice_s;
    slice_load_s;
  }

type fleet = { servers : Shard.t array; router : Router.t }

(* One jobs = 1 shard server per slice, each with its own cache, and one
   router whose connections are dialed by the first call. *)
let start ?(traces = false) s =
  let servers =
    Array.init shards (fun k ->
        Shard.start
          ~serve:(Serve.config ~jobs:1 ~traces ~cache:s.caches.(k) ())
          ~shard:k s.addrs.(k) s.engines.(k))
  in
  { servers; router = Router.create ~manifest:s.manifest ~addrs:s.addrs () }

let stop f =
  Router.close f.router;
  Array.iter Shard.stop f.servers

let with_fleet ?traces s f =
  let fleet = start ?traces s in
  Fun.protect ~finally:(fun () -> stop fleet) (fun () -> f fleet)
