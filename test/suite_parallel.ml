(* The parallel offline build: the domain pool's contract (input-order
   merge, deterministic exception choice, inline nesting), the
   domain-safety retrofits (atomic counters, snapshot caching, registry
   absorption), the headline property — Engine.build produces
   bit-identical derived tables, registry and answers for every jobs
   value — and the union phase's glue-signature memo against a reference
   that canonicalizes every union. *)

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
  Alcotest.(check int) "new snapshot complete" 3 (Array.length b)

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
      Alcotest.(check string) (Printf.sprintf "jobs=%d fingerprint" jobs) base_fp (fingerprint e))
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

(* --- the union phase's glue-signature memo --------------------------------- *)

(* The reference union phase: the Definition 2 product over the same
   sorted, truncated representatives, canonicalizing every union itself.
   It shares no code with the memo or the signatures. *)
let reference_unions dg (caps : Compute.caps) pd =
  let truncated = ref false in
  let classes =
    Compute.pending_classes pd
    |> List.sort (fun ((a : string), _) (b, _) -> compare a b)
    |> List.map (fun (_, reps) ->
           Array.sort (fun (_, a) (_, b) -> compare a b) reps;
           if Array.length reps > caps.Compute.max_reps_per_class then truncated := true;
           Array.sub reps 0 (min caps.Compute.max_reps_per_class (Array.length reps)))
  in
  let rec product = function
    | [] -> Seq.return []
    | reps :: rest ->
        Seq.flat_map (fun r -> Seq.map (fun tail -> r :: tail) (product rest)) (Array.to_seq reps)
  in
  let unions = List.of_seq (Seq.take (caps.Compute.max_combos_per_pair + 1) (product classes)) in
  let combos = min (List.length unions) caps.Compute.max_combos_per_pair in
  let topos =
    List.fold_left
      (fun acc chosen ->
        let g = Compute.union_of_representatives dg chosen in
        let key = Topo_graph.Canon.key g in
        if List.mem_assoc key acc then acc else (key, g) :: acc)
      []
      (List.filteri (fun i _ -> i < combos) unions)
  in
  (List.rev topos, combos, !truncated || List.length unions > combos)

let graph_shape g =
  ( List.map (fun id -> (id, Lgraph.node_label g id)) (Lgraph.nodes g),
    List.map (fun { Lgraph.u; v; label } -> (u, v, label)) (Lgraph.edges g) )

(* The union phase over [pendings] on a [jobs]-domain pool, checked pair by
   pair against [reference_unions]; the topologies are committed to
   [registry].  Returns whether everything matched, and how many pairs the
   caps truncated. *)
let unions_match_oracle ~jobs dg caps registry pendings =
  let expected = Array.map (reference_unions dg caps) pendings in
  let protos = Pool.with_pool ~jobs (fun pool -> Compute.unions_of_pairs pool dg caps pendings) in
  ignore (Compute.commit registry protos);
  let capped =
    Array.fold_left (fun n (_, _, was_capped) -> if was_capped then n + 1 else n) 0 expected
  in
  ( Array.length protos = Array.length pendings
    && Array.for_all2
         (fun pr (topos, combos, was_capped) ->
           let got = Compute.proto_topos pr in
           List.map fst got = List.map fst topos
           && List.for_all2 (fun (_, g) (_, g') -> graph_shape g = graph_shape g') got topos
           && Compute.proto_combos pr = combos
           && Compute.proto_capped pr = was_capped)
         protos expected,
    capped )

let registry_keys_canonical registry =
  List.for_all
    (fun (t : Topology.t) -> t.Topology.key = Topo_graph.Canon.key t.Topology.graph)
    (Topology.all registry)

let pendings_of dg ~t1 ~t2 caps =
  let paths = Compute.schema_paths_between (Biozon.Bschema.schema_graph ()) ~t1 ~t2 ~l:3 in
  List.iter (Topo_graph.Data_graph.intern_path_labels dg) paths;
  Compute.merge_shards (List.map (Compute.enumerate_path dg caps ~same_type:(t1 = t2)) paths)

(* One generated instance through the union phase, with small caps.
   [junk] labels are interned first, so label ids — and with them
   canonical keys — differ between cases: a memo that outlived its build
   would answer with another interner's keys. *)
let memo_oracle_case ~seed ~junk ~jobs =
  let catalog =
    Biozon.Generator.generate
      (Biozon.Generator.scale 0.08 { Biozon.Generator.default with Biozon.Generator.seed = seed })
  in
  let interner = Topo_util.Interner.create () in
  for i = 1 to junk do
    ignore (Topo_util.Interner.intern interner (Printf.sprintf "junk:%d" i))
  done;
  let dg = Biozon.Bschema.data_graph catalog interner in
  let caps =
    { Compute.max_reps_per_class = 2; max_combos_per_pair = 2; max_paths_per_class = max_int }
  in
  let registry = Topology.create_registry () in
  let ok, capped =
    List.fold_left
      (fun (ok, capped) (t1, t2) ->
        let ok', capped' =
          unions_match_oracle ~jobs dg caps registry (pendings_of dg ~t1 ~t2 caps)
        in
        (ok && ok', capped + capped'))
      (true, 0)
      [ ("Protein", "DNA"); ("Protein", "Protein"); ("Protein", "Interaction") ]
  in
  (ok && registry_keys_canonical registry, capped)

let prop_memo_matches_oracle =
  QCheck.Test.make ~name:"generated instance: memoized unions = per-union Canon.key oracle"
    ~count:8
    QCheck.(triple (int_range 0 5_000) (int_range 0 40) (int_range 1 2))
    (fun (seed, junk, jobs) -> fst (memo_oracle_case ~seed ~junk ~jobs))

(* The generator's default seed truncates pairs under these caps, so the
   oracle also covers capped pairs on every run. *)
let test_memo_oracle_capped () =
  let seed = Biozon.Generator.default.Biozon.Generator.seed in
  let ok, capped = memo_oracle_case ~seed ~junk:3 ~jobs:1 in
  Alcotest.(check bool) "memoized unions = oracle" true ok;
  Alcotest.(check bool) "some pairs capped" true (capped > 0)

(* Two Protein-Protein pairs whose unions have the same glue once
   orientation is ignored: each joins a P-D-U-P path to a P-I-D-P path at
   both ends.  From the smaller endpoint, pair (1, 2) reads its P-D-U-P
   path DNA first and pair (3, 4) reads it Unigene first, so the two
   unions are different cycles and need different keys. *)
let test_memo_keeps_orientation () =
  let interner = Topo_util.Interner.create () in
  let dg = Topo_graph.Data_graph.create interner in
  List.iter
    (fun (ty, ids) -> List.iter (fun id -> Topo_graph.Data_graph.add_entity dg ~ty ~id) ids)
    [
      ("Protein", [ 1; 2; 3; 4 ]);
      ("DNA", [ 11; 12; 13; 14 ]);
      ("Unigene", [ 21; 22 ]);
      ("Interaction", [ 31; 32 ]);
    ];
  List.iter
    (fun (rel, a, b) -> Topo_graph.Data_graph.add_relationship dg ~rel ~a ~b)
    [
      ("encodes", 1, 11); ("uni_contains", 21, 11); ("uni_encodes", 21, 2);
      ("interacts_p", 1, 31); ("interacts_d", 12, 31); ("encodes", 2, 12);
      ("encodes", 4, 13); ("uni_contains", 22, 13); ("uni_encodes", 22, 3);
      ("interacts_p", 3, 32); ("interacts_d", 14, 32); ("encodes", 4, 14);
    ];
  Topo_graph.Data_graph.freeze dg;
  let caps = Compute.default_caps in
  let pendings = pendings_of dg ~t1:"Protein" ~t2:"Protein" caps in
  Alcotest.(check int) "the two pairs" 2 (Array.length pendings);
  let keys =
    Array.map
      (fun pd -> List.map fst (let topos, _, _ = reference_unions dg caps pd in topos))
      pendings
  in
  Alcotest.(check bool) "the unions are not isomorphic" true (keys.(0) <> keys.(1));
  let registry = Topology.create_registry () in
  let ok, _ = unions_match_oracle ~jobs:1 dg caps registry pendings in
  Alcotest.(check bool) "memoized unions = oracle" true ok;
  Alcotest.(check bool) "registered keys canonical" true (registry_keys_canonical registry)

let suites =
  [
    ( "par.pool",
      [
        Alcotest.test_case "map preserves input order" `Quick test_map_order;
        Alcotest.test_case "exception of lowest index" `Quick test_map_exception_lowest_index;
        Alcotest.test_case "nested map runs inline" `Quick test_nested_map_inline;
        Alcotest.test_case "chunked = unchunked" `Quick test_chunked_matches_unchunked;
        Alcotest.test_case "jobs=1 inline" `Quick test_one_job_inline;
      ] );
    ( "par.safety",
      [
        Alcotest.test_case "counters atomic across domains" `Quick test_counters_atomic_across_domains;
        Alcotest.test_case "Table.rows snapshot cache" `Quick test_rows_snapshot_cache;
      ] );
    ( "par.determinism",
      [
        Alcotest.test_case "paper db: jobs {1,2,4} identical" `Quick test_paper_build_jobs_identical;
        QCheck_alcotest.to_alcotest prop_generated_build_jobs_identical;
        QCheck_alcotest.to_alcotest prop_memo_matches_oracle;
        Alcotest.test_case "memo oracle covers capped pairs" `Quick test_memo_oracle_capped;
        Alcotest.test_case "memo keeps each representative's orientation" `Quick
          test_memo_keeps_orientation;
      ] );
  ]
