module Pool = Topo_util.Pool
module Counters = Topo_sql.Iterator.Counters

type t = { ctx : Context.t; build_stats : (string * string * Compute.stats) list }

(* The enum lives in [Methods]; re-export it (constructors included) so
   existing callers keep writing [Engine.Fast_top_k_opt]. *)
type method_ = Methods.method_ =
  | Sql
  | Full_top
  | Fast_top
  | Full_top_k
  | Fast_top_k
  | Full_top_k_et
  | Fast_top_k_et
  | Full_top_k_opt
  | Fast_top_k_opt

let all_methods = Methods.all_methods

let method_name = Methods.method_name

(* The offline phase, parallelized on a domain pool.  The per-entity-pair
   sweeps are flattened into two shared task arrays — one task per
   (pair, schema path) for instance enumeration, one per chunk of entity
   pairs for the union product — so a build over few entity-set pairs
   still saturates the pool.  All shared-state writes (intern pool, the
   topology registry, the catalog's derived tables) stay on the
   coordinator domain: labels are pre-interned before fan-out, and TIDs
   are assigned only at commit, in entity-pair declaration order then
   (a, b) order.  A [~jobs:n] build is therefore bit-identical to
   [~jobs:1]. *)
let build catalog ~pairs ?(l = 3) ?(caps = Compute.default_caps) ?(pruning_threshold = 50)
    ?(exclude_weak = false) ?(min_reliability = 0.0) ?jobs () =
  let interner = Topo_util.Interner.create () in
  let dg = Biozon.Bschema.data_graph catalog interner in
  let schema = Biozon.Bschema.schema_graph () in
  let builder = Topology.builder () in
  (* The registry is frozen once every pair has committed; until then it
     is the empty one. *)
  let ctx =
    {
      Context.catalog;
      interner;
      dg;
      schema;
      registry = Topology.freeze builder;
      l;
      caps;
      class_paths = Hashtbl.create 256;
      stores = Hashtbl.create 8;
    }
  in
  let path_filter p =
    ((not exclude_weak) || not (Weak.is_weak_path p))
    && Weak.reliability_filter ~threshold:min_reliability p
  in
  Pool.with_pool ?jobs (fun pool ->
      let pair_paths =
        List.map
          (fun (t1, t2) ->
            let paths = List.filter path_filter (Compute.schema_paths_between schema ~t1 ~t2 ~l) in
            List.iter (Topo_graph.Data_graph.intern_path_labels dg) paths;
            (* After the interning above, so the walkers it compiles add
               labels (and snapshot intern-pool entries) only for paths the
               filter dropped. *)
            Context.register_class_paths ctx ~t1 ~t2;
            (t1, t2, paths))
          pairs
      in
      let n_pairs = List.length pair_paths in
      (* Phase A: instance enumeration, one task per (pair, schema path). *)
      let enum_tasks =
        Array.of_list
          (List.concat
             (List.mapi
                (fun i (t1, t2, paths) -> List.map (fun p -> (i, (t1 : string) = t2, p)) paths)
                pair_paths))
      in
      let shards =
        Pool.parallel_map pool enum_tasks ~f:(fun (_, same_type, p) ->
            Compute.enumerate_path dg caps ~same_type p)
      in
      let shards_by_pair = Array.make n_pairs [] in
      Array.iteri
        (fun idx (i, _, _) -> shards_by_pair.(i) <- shards.(idx) :: shards_by_pair.(i))
        enum_tasks;
      let shards_by_pair = Array.map List.rev shards_by_pair in
      (* Phase B: the union/canonicalize product over every pending pair,
         claimed in chunks that each canonicalize once per glue signature. *)
      let pendings = Array.map Compute.merge_shards shards_by_pair in
      let protos = Compute.unions_of_pairs pool dg caps (Array.concat (Array.to_list pendings)) in
      let protos_by_pair =
        let out = Array.map (fun pds -> Array.make (Array.length pds) None) pendings in
        let cursor = ref 0 in
        Array.iteri
          (fun i pds ->
            Array.iteri
              (fun j _ ->
                out.(i).(j) <- Some protos.(!cursor);
                incr cursor)
              pds)
          pendings;
        Array.map
          (Array.map (function
            | Some pr -> pr
            | None -> failwith "Engine.build: proto cursor misaligned with pending pairs"))
          out
      in
      (* Phase C: commit + store build, coordinator only, declared order.
         Each store reads the registry as its own commit left it. *)
      let build_stats =
        List.mapi
          (fun i (t1, t2, paths) ->
            let rows = Compute.commit builder protos_by_pair.(i) in
            let store =
              Store.build catalog interner (Topology.freeze builder) ~rows ~t1 ~t2 ~pruning_threshold
            in
            Hashtbl.replace ctx.Context.stores (t1, t2) store;
            ( t1,
              t2,
              Compute.sweep_stats ~schema_paths:(List.length paths) ~shards:shards_by_pair.(i)
                ~protos:protos_by_pair.(i) ~rows ))
          pair_paths
      in
      { ctx = { ctx with Context.registry = Topology.freeze builder }; build_stats })

(* One cache per engine; the engine is frozen, so the cache needs nothing
   from it. *)
let cache ?capacity (_ : t) = Cache.create ?capacity ()

(* The raw evaluation: dispatch the method, time it, trace it.  Counters
   accumulate in the scope [run_request] installs; exceptions propagate. *)
let eval t (req : Request.t) aligned ~verify_plans ?trace ?budget () =
  let evaluate ?trace () =
    Methods.dispatch req.Request.method_ ~check:verify_plans ?trace ?budget t.ctx aligned
      ~scheme:req.Request.scheme ~k:req.Request.k
  in
  let (ranked, strategy), elapsed_s =
    Topo_util.Timer.time (fun () ->
        match trace with
        | None -> evaluate ()
        | Some tr ->
            Topo_obs.Trace.with_span tr (method_name req.Request.method_)
              ~tags:
                [ ("scheme", Ranking.name req.Request.scheme); ("k", string_of_int req.Request.k) ]
              (fun () -> evaluate ?trace ()))
  in
  { Request.ranked; elapsed_s; method_ = req.Request.method_; strategy }

let run_request t ?cache ?(verify_plans = false) ?(traces = false) (req : Request.t) =
  let trace = if traces then Some (Topo_obs.Trace.create ()) else None in
  (* Verification mode prices and checks every plan fresh.  A cache hit
     would skip evaluation — and with it every check — so the cache is
     bypassed. *)
  let cache = if verify_plans then None else cache in
  let outcome result counters status =
    {
      Request.request = req;
      result;
      counters;
      served_by = (Domain.self () :> int);
      trace;
      cache = status;
    }
  in
  match req.Request.deadline with
  | Some d when Budget.expired_now ~now:(Unix.gettimeofday ()) d ->
      (* Expired before any work started: short-circuit ahead of the
         cache lookup and the counter scope, so a rejected request is
         observably free — no cache traffic, no counter activity. *)
      Request.unevaluated ?trace (Request.Rejected Request.Expired) req
  | deadline -> (
      let budget = Option.map Budget.start deadline in
      let lift = function
        | Ok r ->
            if (match budget with Some b -> Budget.tripped b | None -> false) then
              Request.Partial r
            else Request.Done r
        | Error f -> Request.Failed f
      in
      let evaluate () =
        Counters.with_scope (fun () ->
            let q = req.Request.query in
            match Methods.align t.ctx q with
            | None ->
                Error
                  (Request.unknown_pair ~t1:q.Query.e1.Query.entity ~t2:q.Query.e2.Query.entity
                     (Context.pairs t.ctx))
            | Some aligned -> (
                try Ok (eval t req aligned ~verify_plans ?trace ?budget ())
                with e -> Error (Request.Internal (Printexc.to_string e))))
      in
      match cache with
      | None ->
          let result, counters = evaluate () in
          outcome (lift result) counters Request.Uncached
      | Some c -> (
          let key = Request.key req in
          match Cache.find_result c ~key with
          | Some p ->
              (match trace with
              | Some tr ->
                  Topo_obs.Trace.with_span tr "cache_hit" ~tags:[ ("key", key) ] (fun () -> ())
              | None -> ());
              outcome
                (Request.Done
                   {
                     Request.ranked = p.Cache.ranked;
                     elapsed_s = 0.0;
                     method_ = req.Request.method_;
                     strategy = p.Cache.strategy;
                   })
                p.Cache.counters Request.Hit
          | None ->
              let result, counters = evaluate () in
              let result = lift result in
              (match result with
              | Request.Done r ->
                  Cache.add_result c ~key
                    { Cache.ranked = r.Request.ranked; strategy = r.Request.strategy; counters }
              | Request.Partial _ | Request.Rejected _ | Request.Failed _ ->
                  (* Only complete answers are memoized: a partial is a
                     deadline-shaped prefix, and failures recur
                     deterministically. *)
                  ());
              outcome result counters Request.Miss))

(* The full observable output of the offline phase, as one digest: every
   registered topology's (TID, canonical key, decompositions) plus every
   derived table's rows in insertion order.  Tables are visited sorted by
   name so the digest does not depend on catalog registration order;
   within a table, row order is meaningful (and jobs-invariant: the build
   commits rows in declared pair order then (a, b) order). *)
let derived_prefixes = [ "AllTops_"; "LeftTops_"; "ExcpTops_"; "TopInfo_" ]

let is_derived_table name =
  List.exists
    (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
    derived_prefixes

let fingerprint t =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (tp : Topology.t) ->
      Buffer.add_string buf (Printf.sprintf "T%d %s" tp.Topology.tid tp.Topology.key);
      List.iter
        (fun d -> Buffer.add_string buf ("|" ^ String.concat "," d))
        tp.Topology.decompositions;
      Buffer.add_char buf '\n')
    (Topology.all t.ctx.Context.registry);
  let tables =
    Topo_sql.Catalog.tables t.ctx.Context.catalog
    |> List.filter (fun tb -> is_derived_table (Topo_sql.Table.name tb))
    |> List.sort (fun a b -> compare (Topo_sql.Table.name a) (Topo_sql.Table.name b))
  in
  List.iter
    (fun tb ->
      Buffer.add_string buf (Topo_sql.Table.name tb);
      Buffer.add_char buf '\n';
      Topo_sql.Table.iter
        (fun _ row ->
          Buffer.add_string buf (Topo_sql.Tuple.to_string row);
          Buffer.add_char buf '\n')
        tb)
    tables;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let topology t tid = Topology.find t.ctx.Context.registry tid

let describe t tid = Topology.describe t.ctx.Context.interner (topology t tid)

let store t ~t1 ~t2 =
  match Context.store_for t.ctx ~t1 ~t2 with
  | Some (s, _) -> s
  | None ->
      invalid_arg
        (Request.failure_to_string (Request.unknown_pair ~t1 ~t2 (Context.pairs t.ctx)))
