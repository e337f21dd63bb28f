(* Persistent snapshots: save/load round trips must reproduce the
   in-process engine bit for bit (engine fingerprint and a full nine-method
   serve batch), every planted corruption must be rejected with a
   descriptive Snapshot.Error, and the store build that snapshots persist
   must itself match a naive quadratic reference (the hash-set rewrite of
   Store.build may only change speed, never rows). *)

open Topo_core
module Pool = Topo_util.Pool
module Catalog = Topo_sql.Catalog
module Table = Topo_sql.Table
module Value = Topo_sql.Value

let paper_engine =
  lazy
    (Engine.build
       (Biozon.Paper_db.catalog ())
       ~pairs:[ ("Protein", "DNA") ]
       ~pruning_threshold:50 ())

let generated_engine ?(scale = 0.08) ?(seed = 20070415) () =
  Engine.build
    (Biozon.Generator.generate
       (Biozon.Generator.scale scale { Biozon.Generator.default with Biozon.Generator.seed = seed }))
    ~pairs:[ ("Protein", "DNA"); ("Protein", "Interaction") ]
    ~pruning_threshold:10 ()

(* All nine methods, rotating schemes — served on a forced 2-domain pool so
   the loaded engine also proves out under real concurrency. *)
let serve_fp (engine : Engine.t) =
  let catalog = engine.Engine.ctx.Context.catalog in
  let schemes = [ Ranking.Freq; Ranking.Rare; Ranking.Domain ] in
  let requests =
    List.mapi
      (fun i method_ ->
        Request.make
          ~scheme:(List.nth schemes (i mod 3))
          ~k:10 method_
          (Query.make (Query.endpoint catalog "Protein") (Query.endpoint catalog "DNA")))
      Engine.all_methods
  in
  let outcomes =
    Pool.with_pool ~jobs:2 (fun pool ->
        (Serve.exec (Serve.config ~pool ()) engine requests).Serve.outcomes)
  in
  Serve.fingerprint outcomes

let with_temp_snapshot engine f =
  let path = Filename.temp_file "toposearch_test_snap" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let (_ : int) = Snapshot.save engine ~path in
      f path)

(* --- round trips ---------------------------------------------------------- *)

let test_paper_roundtrip () =
  let engine = Lazy.force paper_engine in
  with_temp_snapshot engine (fun path ->
      let loaded = Snapshot.load path in
      Alcotest.(check string) "engine fingerprint survives the round trip"
        (Engine.fingerprint engine) (Engine.fingerprint loaded);
      Alcotest.(check string) "nine-method serve batch bit-identical"
        (serve_fp engine) (serve_fp loaded))

let test_generated_roundtrip_details () =
  let engine = generated_engine () in
  with_temp_snapshot engine (fun path ->
      let loaded = Snapshot.load path in
      let catalog = engine.Engine.ctx.Context.catalog in
      let catalog' = loaded.Engine.ctx.Context.catalog in
      Alcotest.(check (list string)) "same tables in the same registration order"
        (List.map Table.name (Catalog.tables catalog))
        (List.map Table.name (Catalog.tables catalog'));
      List.iter
        (fun tb ->
          let tb' = Catalog.find catalog' (Table.name tb) in
          Alcotest.(check int)
            (Table.name tb ^ " row count")
            (Table.row_count tb) (Table.row_count tb');
          Alcotest.(check bool)
            (Table.name tb ^ " rows identical, floats bit-exact")
            true
            (Table.rows tb = Table.rows tb');
          Alcotest.(check bool)
            (Table.name tb ^ " index specs survive")
            true
            (Table.index_specs tb = Table.index_specs tb'))
        (Catalog.tables catalog);
      Alcotest.(check int) "interner round trips every id"
        (Topo_util.Interner.count engine.Engine.ctx.Context.interner)
        (Topo_util.Interner.count loaded.Engine.ctx.Context.interner);
      Alcotest.(check int) "registry has every topology"
        (Topology.count engine.Engine.ctx.Context.registry)
        (Topology.count loaded.Engine.ctx.Context.registry);
      Alcotest.(check bool) "build stats survive" true
        (engine.Engine.build_stats = loaded.Engine.build_stats))

(* Token-count tables are derived, not persisted: [restore] must rebuild
   them so a loaded catalog estimates every keyword like the built one. *)
let test_contains_estimates_survive () =
  let engine = generated_engine () in
  with_temp_snapshot engine (fun path ->
      let loaded = Snapshot.load path in
      let catalog = engine.Engine.ctx.Context.catalog in
      let catalog' = loaded.Engine.ctx.Context.catalog in
      let keywords =
        List.map fst (Biozon.Vocab.protein_keywords @ Biozon.Vocab.interaction_keywords @ Biozon.Vocab.dna_types)
        @ Array.to_list Biozon.Vocab.fillers
      in
      let checked = ref 0 in
      List.iter
        (fun tb ->
          let name = Table.name tb in
          let schema = Table.schema tb in
          Array.iteri
            (fun col (c : Topo_sql.Schema.column) ->
              if c.Topo_sql.Schema.ty = Topo_sql.Schema.TStr then
                List.iter
                  (fun kw ->
                    let pred = Topo_sql.Expr.Contains (Topo_sql.Expr.Col col, kw) in
                    let sel cat = Topo_sql.Table_stats.predicate_selectivity (Catalog.stats cat name) schema pred in
                    incr checked;
                    let built = sel catalog and restored = sel catalog' in
                    if not (Float.equal built restored) then
                      Alcotest.failf "%s.%s ct(%S): built %h, loaded %h" name c.Topo_sql.Schema.name kw built
                        restored)
                  keywords)
            (Topo_sql.Schema.columns schema))
        (Catalog.tables catalog);
      Alcotest.(check bool) "some string column was checked" true (!checked > 0))

(* Keyword postings are derived, not persisted: a loaded (columnar)
   table must answer every keyword with the same rows as the built one. *)
let test_keyword_postings_survive () =
  let engine = generated_engine () in
  with_temp_snapshot engine (fun path ->
      let loaded = Snapshot.load path in
      let catalog' = loaded.Engine.ctx.Context.catalog in
      let keywords =
        List.map fst (Biozon.Vocab.protein_keywords @ Biozon.Vocab.interaction_keywords @ Biozon.Vocab.dna_types)
        @ Array.to_list Biozon.Vocab.fillers
      in
      let hits = ref 0 in
      List.iter
        (fun tb ->
          let tb' = Catalog.find catalog' (Table.name tb) in
          Array.iteri
            (fun col (c : Topo_sql.Schema.column) ->
              if c.Topo_sql.Schema.ty = Topo_sql.Schema.TStr then
                List.iter
                  (fun kw ->
                    let built = Table.keyword_rows tb col kw and restored = Table.keyword_rows tb' col kw in
                    hits := !hits + Array.length built;
                    if built <> restored then
                      Alcotest.failf "%s.%s ct(%S): built %d rows, loaded %d" (Table.name tb)
                        c.Topo_sql.Schema.name kw (Array.length built) (Array.length restored))
                  keywords)
            (Topo_sql.Schema.columns (Table.schema tb)))
        (Catalog.tables engine.Engine.ctx.Context.catalog);
      Alcotest.(check bool) "some keyword matched some row" true (!hits > 0))

let prop_generated_roundtrip =
  QCheck.Test.make ~name:"generated instance: snapshot load = in-process build" ~count:3
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let engine = generated_engine ~seed () in
      with_temp_snapshot engine (fun path ->
          let loaded = Snapshot.load path in
          Engine.fingerprint engine = Engine.fingerprint loaded
          && serve_fp engine = serve_fp loaded))

(* --- corrupted snapshots -------------------------------------------------- *)

let corrupt path f =
  let ic = open_in_bin path in
  let data = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let data = f data in
  let path' = Filename.temp_file "toposearch_test_corrupt" ".bin" in
  let oc = open_out_bin path' in
  output_bytes oc data;
  close_out oc;
  path'

let flip data off =
  Bytes.set data off (Char.chr (Char.code (Bytes.get data off) lxor 0x41));
  data

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_rejected name needle path =
  match Snapshot.load path with
  | (_ : Engine.t) -> Alcotest.failf "%s: corrupt snapshot loaded successfully" name
  | exception Snapshot.Error msg ->
      if not (contains ~needle (String.lowercase_ascii msg)) then
        Alcotest.failf "%s: error %S does not mention %S" name msg needle

let test_corruptions () =
  let engine = Lazy.force paper_engine in
  with_temp_snapshot engine (fun path ->
      let cases =
        [
          ("flipped magic", "magic", corrupt path (fun d -> flip d 2));
          ("bumped version", "version", corrupt path (fun d -> flip d 8));
          ( "truncated file",
            "truncated",
            corrupt path (fun d -> Bytes.sub d 0 (Bytes.length d / 2)) );
          (* offset 28 is inside the length-prefixed fingerprint hex: the
             payload checksum still matches, the decode succeeds, and only
             the final fingerprint verification can catch it *)
          ("flipped fingerprint", "fingerprint", corrupt path (fun d -> flip d 28));
          ( "flipped payload byte",
            "checksum",
            corrupt path (fun d -> flip d (Bytes.length d - 100)) );
        ]
      in
      List.iter
        (fun (name, needle, path') ->
          Fun.protect
            ~finally:(fun () -> try Sys.remove path' with Sys_error _ -> ())
            (fun () -> check_rejected name needle path'))
        cases)

let test_missing_file () =
  match Snapshot.load "/nonexistent/toposearch.snap" with
  | (_ : Engine.t) -> Alcotest.fail "loading a missing file succeeded"
  | exception Snapshot.Error msg ->
      Alcotest.(check bool) "error names the problem" true
        (String.length msg > 0)

(* --- store build vs the naive quadratic reference ------------------------- *)

(* The pre-hash-set Store.build, re-derived from the store's own inputs
   (rows, pruned, decompositions) with List.mem scans.  The optimized
   build's LeftTops and ExcpTops tables must match this row for row. *)
let naive_lefttops (store : Store.t) =
  let pruned_tids = List.map (fun (p : Topology.t) -> p.Topology.tid) store.Store.pruned in
  List.concat_map
    (fun (r : Compute.pair_row) ->
      List.filter_map
        (fun tid ->
          if List.mem tid pruned_tids then None else Some (r.Compute.a, r.Compute.b, tid))
        r.Compute.tids)
    store.Store.rows

let naive_excptops (store : Store.t) =
  List.concat_map
    (fun (p : Topology.t) ->
      let decompositions = Atomic.get p.Topology.decompositions in
      List.filter_map
        (fun (r : Compute.pair_row) ->
          let satisfies =
            List.exists
              (fun d -> List.for_all (fun key -> List.mem key r.Compute.class_keys) d)
              decompositions
          in
          if satisfies && not (List.mem p.Topology.tid r.Compute.tids) then
            Some (r.Compute.a, r.Compute.b, p.Topology.tid)
          else None)
        store.Store.rows)
    store.Store.pruned

let table_triples catalog name =
  Catalog.find catalog name |> Table.rows
  |> Array.map (fun row ->
         match row with
         | [| Value.Int a; Value.Int b; Value.Int tid |] -> (a, b, tid)
         | _ -> Alcotest.failf "%s: unexpected row shape" name)
  |> Array.to_list

let test_store_matches_naive () =
  (* A low threshold so pruning actually fires and ExcpTops is non-empty. *)
  let engine = generated_engine ~scale:0.1 () in
  let catalog = engine.Engine.ctx.Context.catalog in
  List.iter
    (fun (t1, t2, (_ : Compute.stats)) ->
      let store = Engine.store engine ~t1 ~t2 in
      let pair = Printf.sprintf "%s-%s" t1 t2 in
      Alcotest.(check bool)
        (pair ^ " has pruned topologies (the test exercises both loops)")
        true
        (store.Store.pruned <> []);
      Alcotest.(check (list (triple int int int)))
        (pair ^ " LeftTops identical to the naive List.mem build")
        (naive_lefttops store)
        (table_triples catalog store.Store.lefttops);
      Alcotest.(check (list (triple int int int)))
        (pair ^ " ExcpTops identical to the naive List.mem build")
        (naive_excptops store)
        (table_triples catalog store.Store.excptops))
    engine.Engine.build_stats

let suites =
  [
    ( "snapshot.roundtrip",
      [
        Alcotest.test_case "paper db round trip" `Quick test_paper_roundtrip;
        Alcotest.test_case "generated instance: tables, indexes, registry" `Quick
          test_generated_roundtrip_details;
        Alcotest.test_case "Contains estimates: loaded = built" `Quick test_contains_estimates_survive;
        Alcotest.test_case "keyword postings: loaded = built" `Quick test_keyword_postings_survive;
        QCheck_alcotest.to_alcotest prop_generated_roundtrip;
      ] );
    ( "snapshot.corruption",
      [
        Alcotest.test_case "planted corruptions all rejected" `Quick test_corruptions;
        Alcotest.test_case "missing file is a Snapshot.Error" `Quick test_missing_file;
      ] );
    ( "snapshot.store",
      [
        Alcotest.test_case "hash-set store build = naive quadratic build" `Quick
          test_store_matches_naive;
      ] );
  ]
