(* The parallel offline build: the domain pool's contract (input-order
   merge, deterministic exception choice, inline nesting), the
   domain-safety retrofits (atomic counters, snapshot caching, registry
   absorption), and the headline property — Engine.build produces
   bit-identical derived tables, registry and answers for every jobs
   value. *)

open Topo_core
module Pool = Topo_util.Pool
module Table = Topo_sql.Table
module Tuple = Topo_sql.Tuple
module Schema = Topo_sql.Schema
module Value = Topo_sql.Value
module Counters = Topo_sql.Iterator.Counters
module Lgraph = Topo_graph.Lgraph

(* --- the pool itself ---------------------------------------------------- *)

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 200 Fun.id in
      let f i =
        (* uneven work so domains finish out of order *)
        if i mod 7 = 0 then Sys.opaque_identity (ignore (Array.init (1000 + i) Fun.id));
        i * i
      in
      let out = Pool.parallel_map pool input ~f in
      Alcotest.(check (array int)) "input order" (Array.map (fun i -> i * i) input) out)

let test_map_exception_lowest_index () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 100 Fun.id in
      Alcotest.check_raises "smallest failing index wins" (Failure "13") (fun () ->
          ignore
            (Pool.parallel_map pool input ~f:(fun i ->
                 if i = 13 || i = 14 || i = 77 then failwith (string_of_int i);
                 i))))

let test_nested_map_inline () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let out =
        Pool.parallel_map pool (Array.init 8 Fun.id) ~f:(fun i ->
            (* nested submission must run inline, not deadlock *)
            Array.fold_left ( + ) 0
              (Pool.parallel_map pool (Array.init 10 Fun.id) ~f:(fun j -> (i * 10) + j)))
      in
      Alcotest.(check (array int)) "nested sums"
        (Array.init 8 (fun i -> (i * 100) + 45))
        out)

let test_fold_merge_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 64 Fun.id in
      let concat =
        Pool.parallel_fold pool input
          ~f:(fun i -> Printf.sprintf "%d;" i)
          ~init:"" ~merge:( ^ )
      in
      let expected = Array.fold_left (fun acc i -> acc ^ Printf.sprintf "%d;" i) "" input in
      Alcotest.(check string) "merge in input order" expected concat;
      let sum = Pool.parallel_fold pool input ~f:Fun.id ~init:0 ~merge:( + ) in
      Alcotest.(check int) "sum" 2016 sum)

let test_chunked_matches_unchunked () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let input = Array.init 97 (fun i -> i - 40) in
      let f i = (i * 3) - 1 in
      Alcotest.(check (array int)) "chunk=16 = chunk=1"
        (Pool.parallel_map pool input ~f)
        (Pool.parallel_map ~chunk:16 pool input ~f))

let test_one_job_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs clamps to 1" 1 (Pool.jobs pool);
      let out = Pool.parallel_map pool [| 1; 2; 3 |] ~f:(fun x -> x + 1) in
      Alcotest.(check (array int)) "sequential path" [| 2; 3; 4 |] out)

(* --- atomic work counters ----------------------------------------------- *)

let test_counters_atomic_across_domains () =
  (* Scoped domains count while an unscoped one hammers the shared default
     cells: every scope sees exactly its own increments, none lost and
     none leaked in from the other domains. *)
  let per_domain = 25_000 in
  let bump n =
    for _ = 1 to n do
      Counters.add_tuples 1;
      Counters.add_probes 2
    done
  in
  let noise = Domain.spawn (fun () -> bump (4 * per_domain)) in
  let scoped =
    List.init 4 (fun d ->
        Domain.spawn (fun () -> snd (Counters.with_scope (fun () -> bump (per_domain + d)))))
  in
  List.iteri
    (fun d dom ->
      let s = Domain.join dom in
      Alcotest.(check (pair int int))
        (Printf.sprintf "domain %d: no lost or leaked increments" d)
        (per_domain + d, 2 * (per_domain + d))
        (s.Counters.tuples, s.Counters.index_probes))
    scoped;
  Domain.join noise

(* --- Table.rows snapshot cache ------------------------------------------ *)

let test_rows_snapshot_cache () =
  let schema = Schema.make [ { Schema.name = "ID"; ty = Schema.TInt } ] in
  let tb = Table.create ~name:"snap" ~schema () in
  Table.insert_values tb [ Value.Int 1 ];
  Table.insert_values tb [ Value.Int 2 ];
  let a = Table.rows tb in
  Alcotest.(check bool) "frozen table: same physical array" true (a == Table.rows tb);
  Table.insert_values tb [ Value.Int 3 ];
  let b = Table.rows tb in
  Alcotest.(check bool) "insert invalidates" false (a == b);
  Alcotest.(check int) "new snapshot complete" 3 (Array.length b);
  Table.truncate tb;
  Alcotest.(check int) "truncate invalidates" 0 (Array.length (Table.rows tb))

(* --- Topology.absorb ----------------------------------------------------- *)

let path2 la lb le =
  let g = Lgraph.empty () in
  Lgraph.add_node g ~id:1 ~label:la;
  Lgraph.add_node g ~id:2 ~label:lb;
  Lgraph.add_edge g ~u:1 ~v:2 ~label:le;
  g

let test_absorb_remap () =
  let src = Topology.create_registry () in
  let g1 = path2 1 2 10 and g2 = path2 3 4 11 in
  let t1 = Topology.register src g1 ~decomposition:[ "p1" ] in
  ignore (Topology.register src g1 ~decomposition:[ "p2" ]);
  let t2 = Topology.register src g2 ~decomposition:[ "q" ] in
  let dst = Topology.create_registry () in
  let pre = Topology.register dst g2 ~decomposition:[ "r" ] in
  let remap = Topology.absorb ~into:dst src in
  Alcotest.(check int) "shared shape dedups onto existing TID" pre.Topology.tid
    (remap t2.Topology.tid);
  let m1 = Topology.find dst (remap t1.Topology.tid) in
  Alcotest.(check (list (list string))) "all decompositions carried over"
    [ [ "p1" ]; [ "p2" ] ] (Atomic.get m1.Topology.decompositions);
  let m2 = Topology.find dst (remap t2.Topology.tid) in
  Alcotest.(check bool) "merged decompositions extend the target" true
    (List.mem [ "q" ] (Atomic.get m2.Topology.decompositions)
    && List.mem [ "r" ] (Atomic.get m2.Topology.decompositions));
  Alcotest.(check int) "no duplicate topologies" 2 (Topology.count dst);
  Alcotest.check_raises "unknown src TID" Not_found (fun () -> ignore (remap 99))

let test_absorb_idempotent () =
  let src = Topology.create_registry () in
  ignore (Topology.register src (path2 1 2 10) ~decomposition:[ "p" ]);
  let dst = Topology.create_registry () in
  let r1 = Topology.absorb ~into:dst src in
  let r2 = Topology.absorb ~into:dst src in
  Alcotest.(check int) "second absorb maps identically" (r1 1) (r2 1);
  Alcotest.(check int) "no growth" 1 (Topology.count dst);
  Alcotest.(check (list (list string))) "no duplicate decompositions" [ [ "p" ] ]
    (Atomic.get (Topology.find dst (r2 1)).Topology.decompositions)

(* --- Engine.build determinism across jobs -------------------------------- *)

(* The full observable output of the offline phase as one string: the
   registry in TID order plus every derived table's rows in physical
   order. *)
let fingerprint (engine : Engine.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (t : Topology.t) ->
      Buffer.add_string buf (Printf.sprintf "T%d %s" t.Topology.tid t.Topology.key);
      List.iter
        (fun d -> Buffer.add_string buf ("|" ^ String.concat "," d))
        (Atomic.get t.Topology.decompositions);
      Buffer.add_char buf '\n')
    (Topology.all engine.Engine.ctx.Context.registry);
  let prefixes = [ "AllTops_"; "LeftTops_"; "ExcpTops_"; "TopInfo_" ] in
  let is_derived name =
    List.exists
      (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
      prefixes
  in
  Topo_sql.Catalog.tables engine.Engine.ctx.Context.catalog
  |> List.filter (fun tb -> is_derived (Table.name tb))
  |> List.sort (fun a b -> compare (Table.name a) (Table.name b))
  |> List.iter (fun tb ->
         Buffer.add_string buf (Table.name tb);
         Buffer.add_char buf '\n';
         Table.iter
           (fun _ tuple ->
             Buffer.add_string buf (Tuple.to_string tuple);
             Buffer.add_char buf '\n')
           tb);
  Buffer.contents buf

let build_paper ~jobs =
  Engine.build
    (Biozon.Paper_db.catalog ())
    ~pairs:[ ("Protein", "DNA") ]
    ~pruning_threshold:50 ~jobs ()

let test_paper_build_jobs_identical () =
  let engines = List.map (fun jobs -> (jobs, build_paper ~jobs)) [ 1; 2; 4 ] in
  let _, base = List.hd engines in
  let base_fp = fingerprint base in
  List.iter
    (fun (jobs, e) ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d fingerprint" jobs)
        base_fp (fingerprint e);
      Alcotest.(check int) (Printf.sprintf "jobs=%d recorded" jobs) jobs e.Engine.jobs)
    engines;
  (* every method answers identically on every build *)
  let answers e =
    let q = Query.q1 e.Engine.ctx.Context.catalog in
    List.map
      (fun m ->
        let r = Request.get_done (Engine.run_request e (Request.make ~k:10 m q)) in
        (Engine.method_name m, r.Request.ranked))
      Engine.all_methods
  in
  let base_answers = answers base in
  List.iter
    (fun (jobs, e) ->
      List.iter2
        (fun (name, expected) (_, got) ->
          Alcotest.(check (list (pair int (option (float 1e-9)))))
            (Printf.sprintf "%s answers, jobs=%d" name jobs)
            expected got)
        base_answers (answers e))
    engines

let prop_generated_build_jobs_identical =
  QCheck.Test.make ~name:"generated instance: build fingerprint invariant across jobs" ~count:4
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let params =
        Biozon.Generator.scale 0.08 { Biozon.Generator.default with Biozon.Generator.seed = seed }
      in
      let build jobs =
        Engine.build
          (Biozon.Generator.generate params)
          ~pairs:[ ("Protein", "DNA"); ("Protein", "Interaction") ]
          ~pruning_threshold:10 ~jobs ()
      in
      let base = fingerprint (build 1) in
      base = fingerprint (build 2) && base = fingerprint (build 4))

let suites =
  [
    ( "par.pool",
      [
        Alcotest.test_case "map preserves input order" `Quick test_map_order;
        Alcotest.test_case "exception of lowest index" `Quick test_map_exception_lowest_index;
        Alcotest.test_case "nested map runs inline" `Quick test_nested_map_inline;
        Alcotest.test_case "fold merges in input order" `Quick test_fold_merge_order;
        Alcotest.test_case "chunked = unchunked" `Quick test_chunked_matches_unchunked;
        Alcotest.test_case "jobs=1 inline" `Quick test_one_job_inline;
      ] );
    ( "par.safety",
      [
        Alcotest.test_case "counters atomic across domains" `Quick test_counters_atomic_across_domains;
        Alcotest.test_case "Table.rows snapshot cache" `Quick test_rows_snapshot_cache;
        Alcotest.test_case "Topology.absorb remap" `Quick test_absorb_remap;
        Alcotest.test_case "Topology.absorb idempotent" `Quick test_absorb_idempotent;
      ] );
    ( "par.determinism",
      [
        Alcotest.test_case "paper db: jobs {1,2,4} identical" `Quick test_paper_build_jobs_identical;
        QCheck_alcotest.to_alcotest prop_generated_build_jobs_identical;
      ] );
  ]
