(* Persistent snapshots: save/load round trips must reproduce the
   in-process engine bit for bit (engine fingerprint and a full nine-method
   serve batch), a file must depend on the build alone (saving after
   serving writes the same bytes), every planted corruption must be
   rejected with a descriptive Snapshot.Error, and the store build that
   snapshots persist must itself match a naive quadratic reference (the
   hash-set rewrite of Store.build may only change speed, never rows). *)

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
          (* Indexes are not saved: the loaded table builds one on its
             first probe, and it must answer every key like the built
             table's. *)
          let col = [ (Topo_sql.Schema.column (Table.schema tb) 0).Topo_sql.Schema.name ] in
          let idx = Table.ensure_index tb ~kind:Topo_sql.Index.Hash ~cols:col
          and idx' = Table.ensure_index tb' ~kind:Topo_sql.Index.Hash ~cols:col in
          Alcotest.(check bool)
            (Table.name tb ^ " index built on first probe answers like the built one")
            true
            (Array.for_all
               (fun row -> Topo_sql.Index.probe idx [| row.(0) |] = Topo_sql.Index.probe idx' [| row.(0) |])
               (Table.rows tb)))
        (Catalog.tables catalog);
      Alcotest.(check int) "interner round trips every id"
        (Topo_util.Interner.count engine.Engine.ctx.Context.interner)
        (Topo_util.Interner.count loaded.Engine.ctx.Context.interner);
      Alcotest.(check int) "registry has every topology"
        (Topology.count engine.Engine.ctx.Context.registry)
        (Topology.count loaded.Engine.ctx.Context.registry);
      Alcotest.(check bool) "build stats survive" true
        (engine.Engine.build_stats = loaded.Engine.build_stats))

(* Statistics are derived, not persisted: every estimate the optimizer
   reads must come out bit-equal on a loaded catalog — equality, range,
   IS NULL and Contains selectivities and distinct counts for every
   column of every table [loaded] holds, and join selectivities along
   the schema's join edges (relationship to entity, derived table to
   its endpoints and to TopInfo). *)
let check_statistics_equal ~what (built : Engine.t) (loaded : Engine.t) =
  let module Schema = Topo_sql.Schema in
  let module Expr = Topo_sql.Expr in
  let module Table_stats = Topo_sql.Table_stats in
  let catalog = built.Engine.ctx.Context.catalog in
  let catalog' = loaded.Engine.ctx.Context.catalog in
  let keywords =
    List.map fst (Biozon.Vocab.protein_keywords @ Biozon.Vocab.interaction_keywords @ Biozon.Vocab.dna_types)
    @ Array.to_list Biozon.Vocab.fillers
  in
  let same label b l =
    if not (Float.equal b l) then Alcotest.failf "%s: %s: built %h, loaded %h" what label b l
  in
  let contains_checked = ref 0 in
  List.iter
    (fun tb' ->
      let name = Table.name tb' in
      let schema = Table.schema tb' in
      let st = Catalog.stats catalog name and st' = Catalog.stats catalog' name in
      let rows = Table.rows tb' in
      let n = Array.length rows in
      Array.iteri
        (fun col (c : Schema.column) ->
          let label s = Printf.sprintf "%s.%s %s" name c.Schema.name s in
          let sel s pred =
            same (label s)
              (Table_stats.predicate_selectivity st schema pred)
              (Table_stats.predicate_selectivity st' schema pred)
          in
          Alcotest.(check int) (label "distinct") (Table_stats.distinct st col) (Table_stats.distinct st' col);
          sel "IS NULL" (Expr.IsNull (Expr.Col col));
          List.iter
            (fun i ->
              let v = Expr.Const rows.(i).(col) in
              let s op = Printf.sprintf "%s row %d's value" op i in
              sel (s "=") (Expr.Cmp (Expr.Eq, Expr.Col col, v));
              sel (s "<=") (Expr.Cmp (Expr.Le, Expr.Col col, v));
              sel (s ">") (Expr.Cmp (Expr.Gt, Expr.Col col, v)))
            (if n = 0 then [] else [ 0; n / 2; n - 1 ]);
          if c.Schema.ty = Schema.TStr then
            List.iter
              (fun kw ->
                incr contains_checked;
                sel (Printf.sprintf "ct(%S)" kw) (Expr.Contains (Expr.Col col, kw)))
              keywords)
        (Schema.columns schema))
    (Catalog.tables catalog');
  let edges =
    List.concat_map
      (fun (r : Biozon.Bschema.relationship) ->
        Biozon.Bschema.[ (r.r_table, r.from_col, r.from_type, "ID"); (r.r_table, r.to_col, r.to_type, "ID") ])
      Biozon.Bschema.relationships
    @ List.concat_map
        (fun (t1, t2, _) ->
          let alltops, lefttops, excptops, topinfo = Store.table_names ~t1 ~t2 in
          [ (alltops, "E1", t1, "ID"); (alltops, "E2", t2, "ID") ]
          @ List.map (fun tb -> (tb, "TID", topinfo, "TID")) [ alltops; lefttops; excptops ])
        loaded.Engine.build_stats
  in
  List.iter
    (fun (lt, lc, rt, rc) ->
      let js cat =
        let col t c = Schema.index_of (Table.schema (Catalog.find cat t)) c in
        Table_stats.join_selectivity ~left:(Catalog.stats cat lt) ~left_col:(col lt lc)
          ~right:(Catalog.stats cat rt) ~right_col:(col rt rc)
      in
      same (Printf.sprintf "join %s.%s = %s.%s" lt lc rt rc) (js catalog) (js catalog'))
    edges;
  Alcotest.(check bool) (what ^ ": some string column was checked") true (!contains_checked > 0)

(* For a full engine and for both slices of a 2-shard cut. *)
let test_statistics_survive () =
  let engine = generated_engine () in
  with_temp_snapshot engine (fun path ->
      check_statistics_equal ~what:"full engine" engine (Snapshot.load path));
  Suite_wire.with_temp_dir (fun dir ->
      let (_ : Snapshot.manifest * int) = Snapshot.save_sharded engine ~dir ~shards:2 in
      for k = 0 to 1 do
        check_statistics_equal ~what:(Printf.sprintf "slice %d" k) engine
          (Snapshot.load (Snapshot.shard_path ~dir k))
      done)

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

(* A snapshot is a function of the build alone: serving queries fills
   statistics, indexes and postings, none of which the file holds, so
   saving again after a served batch writes the same bytes — for a whole
   engine and for every slice of a 2-shard cut and its manifest. *)
let test_save_after_serving () =
  let engine = generated_engine () in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let save () = with_temp_snapshot engine read in
  let cut dir =
    let (_ : Snapshot.manifest * int) = Snapshot.save_sharded engine ~dir ~shards:2 in
    List.map
      (fun f -> (f, read (Filename.concat dir f)))
      [ "shard-0.snap"; "shard-1.snap"; "manifest" ]
  in
  Suite_wire.with_temp_dir (fun before_dir ->
      Suite_wire.with_temp_dir (fun after_dir ->
          let before = save () in
          let slices_before = cut before_dir in
          ignore (serve_fp engine : string);
          let after = save () in
          let slices_after = cut after_dir in
          Alcotest.(check bool) "snapshot saved after serving = saved after the build" true
            (String.equal before after);
          List.iter2
            (fun (f, b) (_, a) ->
              Alcotest.(check bool) (f ^ " cut after serving = cut after the build") true (String.equal b a))
            slices_before slices_after))

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
   with List.mem scans: the sweep rows regrouped from AllTops, each
   pair's class keys recomputed over the build's schema paths, the pruned
   topologies and their decompositions.  The optimized build's LeftTops
   and ExcpTops tables must match this row for row. *)
let sweep_rows (engine : Engine.t) (store : Store.t) =
  let ctx = engine.Engine.ctx in
  let t1 = store.Store.t1 and t2 = store.Store.t2 in
  let paths = Compute.schema_paths_between ctx.Context.schema ~t1 ~t2 ~l:ctx.Context.l in
  List.map
    (fun (a, b, tids) ->
      let _, class_keys =
        Compute.pair_topologies ctx.Context.dg ~paths ~same_type:(t1 = t2) ~a ~b ~caps:ctx.Context.caps
      in
      { Compute.a; b; tids; class_keys })
    (Suite_core.alltops_rows engine store)

let naive_lefttops (store : Store.t) rows =
  let pruned_tids = List.map (fun (p : Topology.t) -> p.Topology.tid) store.Store.pruned in
  List.concat_map
    (fun (r : Compute.pair_row) ->
      List.filter_map
        (fun tid ->
          if List.mem tid pruned_tids then None else Some (r.Compute.a, r.Compute.b, tid))
        r.Compute.tids)
    rows

let naive_excptops (store : Store.t) rows =
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
        rows)
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
      let rows = sweep_rows engine store in
      let pair = Printf.sprintf "%s-%s" t1 t2 in
      Alcotest.(check bool)
        (pair ^ " has pruned topologies (the test exercises both loops)")
        true
        (store.Store.pruned <> []);
      Alcotest.(check (list (triple int int int)))
        (pair ^ " LeftTops identical to the naive List.mem build")
        (naive_lefttops store rows)
        (table_triples catalog store.Store.lefttops);
      Alcotest.(check (list (triple int int int)))
        (pair ^ " ExcpTops identical to the naive List.mem build")
        (naive_excptops store rows)
        (table_triples catalog store.Store.excptops))
    engine.Engine.build_stats

(* A loaded store reads its frequencies back from TopInfo and its pruned
   TIDs from the snapshot: both must equal what the build made. *)
let test_loaded_store_matches_built () =
  let engine = generated_engine ~scale:0.1 () in
  with_temp_snapshot engine (fun path ->
      let loaded = Snapshot.load path in
      List.iter
        (fun (t1, t2, (_ : Compute.stats)) ->
          let built = Engine.store engine ~t1 ~t2 and restored = Engine.store loaded ~t1 ~t2 in
          let pair = Printf.sprintf "%s-%s" t1 t2 in
          let bindings (s : Store.t) =
            List.sort compare (Hashtbl.fold (fun tid f acc -> (tid, f) :: acc) s.Store.frequencies [])
          in
          let tids (s : Store.t) = List.map (fun (p : Topology.t) -> p.Topology.tid) s.Store.pruned in
          Alcotest.(check (list (pair int int))) (pair ^ " frequencies") (bindings built) (bindings restored);
          Alcotest.(check (list int)) (pair ^ " pruned, in build order") (tids built) (tids restored))
        engine.Engine.build_stats)

(* The SQL method recomputes pair topologies over the schema paths the
   build kept, which it reads from the decompositions of the store's
   topologies; a path filter must not let it walk a dropped path, on the
   built engine or on its snapshot. *)
let test_sql_matches_full_top () =
  let builds =
    [
      ("l=3", fun cat -> Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:10 ());
      ( "l=4 exclude_weak",
        fun cat ->
          Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~l:4 ~exclude_weak:true ~pruning_threshold:10 () );
      ( "l=4 min_reliability 0.5",
        fun cat ->
          Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~l:4 ~min_reliability:0.5 ~pruning_threshold:10 () );
    ]
  in
  List.iter
    (fun (label, build) ->
      let cat = Biozon.Generator.generate (Biozon.Generator.scale 0.05 Biozon.Generator.default) in
      let engine = build cat in
      let proteins =
        [ Query.endpoint cat "Protein"; Query.keyword cat "Protein" ~col:"desc" ~kw:"enzyme" ]
      and dnas =
        Query.endpoint cat "DNA"
        :: List.map (fun ty -> Query.equals cat "DNA" ~col:"type" ~value:(Value.Str ty)) [ "mRNA"; "EST" ]
      in
      let check which (e : Engine.t) =
        List.iteri
          (fun i q ->
            let tids m =
              List.map fst (Request.get_done (Engine.run_request e (Request.make m q))).Request.ranked
            in
            Alcotest.(check (list int))
              (Printf.sprintf "%s %s q%d sql=full" label which i)
              (tids Engine.Full_top) (tids Engine.Sql))
          (List.concat_map (fun p -> List.map (Query.make p) dnas) proteins)
      in
      check "built" engine;
      with_temp_snapshot engine (fun path -> check "loaded" (Snapshot.load path)))
    builds

let suites =
  [
    ( "snapshot.roundtrip",
      [
        Alcotest.test_case "paper db round trip" `Quick test_paper_roundtrip;
        Alcotest.test_case "generated instance: tables, indexes, registry" `Quick
          test_generated_roundtrip_details;
        Alcotest.test_case "derived statistics: loaded = built" `Quick test_statistics_survive;
        Alcotest.test_case "keyword postings: loaded = built" `Quick test_keyword_postings_survive;
        Alcotest.test_case "irregular cells: loaded = built" `Quick test_irregular_cells_roundtrip;
        QCheck_alcotest.to_alcotest prop_generated_roundtrip;
        Alcotest.test_case "jobs=2 build saves the jobs=1 bytes" `Quick test_jobs_invariant_bytes;
        Alcotest.test_case "save after serving = save after the build" `Quick test_save_after_serving;
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
        Alcotest.test_case "loaded frequencies and pruned = built" `Quick
          test_loaded_store_matches_built;
        Alcotest.test_case "SQL = Full-Top, built and loaded, filtered builds" `Quick
          test_sql_matches_full_top;
      ] );
  ]
