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

(* The union phase's memos follow the pool's chunking, so guard the file
   itself: a jobs=2 build saves the same bytes as a jobs=1 build. *)
let test_jobs_invariant_bytes () =
  let build jobs =
    Engine.build
      (Biozon.Generator.generate (Biozon.Generator.scale 0.08 Biozon.Generator.default))
      ~pairs:[ ("Protein", "DNA"); ("Protein", "Protein"); ("Protein", "Interaction") ]
      ~pruning_threshold:10 ~jobs ()
  in
  let digest (engine : Engine.t) =
    with_temp_snapshot engine (fun path -> Digest.to_hex (Digest.file path))
  in
  Alcotest.(check string) "jobs=2 file = jobs=1 file" (digest (build 1)) (digest (build 2))

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

(* Cells the generator never produces, each through the codec path its
   declared type selects: int extremes, float bit patterns (0.1, -0.0, a
   NaN with a payload), ints, floats and nulls mixed in a declared-float
   column, null vs empty strings, and numbers in a declared-string
   column. *)
let test_irregular_cells_roundtrip () =
  let module Schema = Topo_sql.Schema in
  let catalog = Biozon.Paper_db.catalog () in
  let col name ty = { Schema.name; ty } in
  let tb =
    Catalog.create_table catalog ~name:"Irregular"
      ~schema:
        (Schema.make
           [
             col "I" Schema.TInt; col "F" Schema.TFloat; col "M" Schema.TFloat;
             col "S" Schema.TStr; col "X" Schema.TStr;
           ])
      ()
  in
  let nan_payload = Int64.float_of_bits 0x7FF8_0000_0000_0123L in
  List.iter (Table.insert tb)
    [
      [| Value.Int max_int; Value.Float 0.1; Value.Int 3; Value.Str "x"; Value.Str "x" |];
      [| Value.Int min_int; Value.Float (-0.0); Value.Float 2.5; Value.Null; Value.Int 7 |];
      [| Value.Int 0; Value.Float nan_payload; Value.Null; Value.Str ""; Value.Float 1.5 |];
      [| Value.Int (-1); Value.Float nan; Value.Int (-4); Value.Str "enzyme"; Value.Null |];
    ];
  let engine = Engine.build catalog ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  with_temp_snapshot engine (fun path ->
      let loaded = Snapshot.load path in
      let tb' = Catalog.find loaded.Engine.ctx.Context.catalog "Irregular" in
      let same_cell a b =
        match (a, b) with
        | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | Value.Float _, _ | _, Value.Float _ -> false
        | _ -> a = b
      in
      Alcotest.(check int) "row count" (Table.row_count tb) (Table.row_count tb');
      Table.iter
        (fun r row ->
          let row' = Table.get tb' r in
          Alcotest.(check bool)
            (Printf.sprintf "row %d cells equal, floats bit-exact" r)
            true
            (Array.length row = Array.length row' && Array.for_all2 same_cell row row');
          Alcotest.(check string)
            (Printf.sprintf "row %d renders the same" r)
            (Topo_sql.Tuple.to_string row) (Topo_sql.Tuple.to_string row'))
        tb;
      Alcotest.(check int) "byte_size" (Table.byte_size tb) (Table.byte_size tb'))

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

(* Offset of the first 'C'-section base-table primary-key slot pair: the
   8-byte slots of rows 0 and 1 of the first table whose primary key is a
   declared-int column with at least two int rows.  Walks the documented
   layout (see snapshot.ml's header). *)
let pk_slots data =
  let pos = ref 0 in
  let u8 () = let c = Char.code (Bytes.get data !pos) in incr pos; c in
  let u32 () = let v = Int32.to_int (Bytes.get_int32_le data !pos) in pos := !pos + 4; v in
  let i64 () = let v = Int64.to_int (Bytes.get_int64_le data !pos) in pos := !pos + 8; v in
  let str () = let n = u32 () in let s = Bytes.sub_string data !pos n in pos := !pos + n; s in
  let strs () = for _ = 1 to u32 () do ignore (str ()) done in
  pos := 8 + 4 + 4 + 8;
  ignore (str ());
  ignore (str ());
  let marker c = if u8 () <> Char.code c then Alcotest.failf "expected section %c" c in
  marker 'I'; strs ();
  marker 'G'; strs ();
  marker 'C';
  let found = ref None in
  for _ = 1 to u32 () do
    ignore (str ());
    let cols = List.init (u32 ()) (fun _ -> let name = str () in (name, u8 ())) in
    let pk = if u8 () = 1 then Some (str ()) else None in
    let n = i64 () in
    List.iter
      (fun (name, ty) ->
        let tags = !pos in
        pos := !pos + n;
        if ty <> 2 then begin
          if !found = None && pk = Some name && ty = 0 && n >= 2
             && Bytes.get data tags = '\001' && Bytes.get data (tags + 1) = '\001'
          then found := Some !pos;
          pos := !pos + (8 * n)
        end
        else
          for r = 0 to n - 1 do
            match Bytes.get data (tags + r) with
            | '\000' -> ()
            | '\003' -> ignore (str ())
            | _ -> pos := !pos + 8
          done)
      cols
  done;
  match !found with Some off -> off | None -> Alcotest.fail "no int primary-key column found"

(* The header's payload checksum, recomputed: a corruption that keeps the
   file self-consistent, so only the decoder's own checks can catch it. *)
let rewrite_checksum data =
  let pos = ref (8 + 4 + 4) in
  let payload_len = Int64.to_int (Bytes.get_int64_le data !pos) in
  pos := !pos + 8;
  let skip () = pos := !pos + 4 + Int32.to_int (Bytes.get_int32_le data !pos) in
  skip ();
  let sum_len = Int32.to_int (Bytes.get_int32_le data !pos) in
  let sum_at = !pos + 4 in
  let payload_at = sum_at + sum_len in
  assert (payload_at + payload_len = Bytes.length data);
  Bytes.blit_string
    (Digest.to_hex (Digest.subbytes data payload_at payload_len))
    0 data sum_at sum_len;
  data

(* A base table's repeated primary key is caught at load, not by the
   first [find_by_pk] after it: the engine fingerprint does not digest
   base tables, so nothing else would. *)
let test_duplicate_primary_key () =
  let engine = Lazy.force paper_engine in
  with_temp_snapshot engine (fun path ->
      let path' =
        corrupt path (fun d ->
            let slots = pk_slots d in
            Bytes.blit d (slots + 8) d slots 8;
            rewrite_checksum d)
      in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path' with Sys_error _ -> ())
        (fun () -> check_rejected "duplicated primary key" "duplicate primary key" path'))

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
        Alcotest.test_case "irregular cells: loaded = built" `Quick test_irregular_cells_roundtrip;
        QCheck_alcotest.to_alcotest prop_generated_roundtrip;
        Alcotest.test_case "jobs=2 build saves the jobs=1 bytes" `Quick test_jobs_invariant_bytes;
      ] );
    ( "snapshot.corruption",
      [
        Alcotest.test_case "planted corruptions all rejected" `Quick test_corruptions;
        Alcotest.test_case "missing file is a Snapshot.Error" `Quick test_missing_file;
        Alcotest.test_case "duplicate base-table primary key rejected" `Quick
          test_duplicate_primary_key;
      ] );
    ( "snapshot.store",
      [
        Alcotest.test_case "hash-set store build = naive quadratic build" `Quick
          test_store_matches_naive;
      ] );
  ]
