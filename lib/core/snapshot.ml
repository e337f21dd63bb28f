(* Binary snapshot codec for the offline build output.

   Layout (all integers little-endian):

     header   "TOPOSNAP" | version u32 | flags u32 | payload length u64
              | fingerprint (length-prefixed hex digest)
              | payload checksum (length-prefixed hex MD5)
     payload  'I' intern pool        strings in id order
              'G' class-key pool     the distinct path-class keys of the
                                     registry's decompositions
              'C' catalog            every table: name, schema, primary key,
                                     then column-major cell data
              'T' topology registry  graphs + decompositions in TID order
              'B' build config       l, caps, per-pair sweep stats
              'P' stores             t1, t2 and the pruned TIDs of each pair
              'C' class pairs        only when flag bit 0 is set
              'E' end marker

   Table cells are column-major: one tag byte per cell (null/int/float/
   string), then — for columns declared numeric — a fixed-width 8-byte
   payload per row (ints as-is, floats by bit pattern).  String columns
   store length-prefixed bytes per non-null cell, and the 8-byte value of
   an int or float cell.  The loader decodes each cell by its tag into
   the rows of an ordinary table.

   The file holds what the build produced and nothing derivable from it,
   so saving after serving writes the bytes saving after the build does.
   A store's frequencies are TopInfo's freq column and its Card_i are
   derived from its tables, so neither is saved; the pruned TIDs are,
   because their tie order comes from the build's hash-table fold.  The
   sweep's pair rows are not saved: the tables hold what the online phase
   reads of them (version 2 also saved them with each pair's frequency
   map).  Table statistics and indexes are not saved either: a loaded
   catalog derives each on first use, as a built one does.

   Every byte goes through [Wire]'s primitives and its bounds-checked
   reader, so a decode failure is an [Error] naming the offset and what
   was being read; after reconstruction the loader recomputes
   [Engine.fingerprint] and refuses to return an engine that does not
   reproduce the digest recorded at save time. *)

open Topo_sql

exception Error = Wire.Error

let fail = Wire.fail

let magic = "TOPOSNAP"

let version = 4

let cell_tag = function Value.Null -> 0 | Value.Int _ -> 1 | Value.Float _ -> 2 | Value.Str _ -> 3

let ty_tag = function Schema.TInt -> 0 | Schema.TFloat -> 1 | Schema.TStr -> 2

(* Pairs whose schema paths [load] must register beyond the built pairs'
   own.  A shard slice keeps the full registry, and the registry dedupes
   canonical topologies across pairs, so a topology observed on this
   slice's pair can hold decompositions recorded during another pair's
   sweep.  Each pooled class key the built pairs do not register names
   its pair by its path's end types.  Empty for a full engine. *)
let class_pairs (engine : Engine.t) pool =
  let ctx = engine.Engine.ctx in
  let own = Hashtbl.create 256 in
  List.iter
    (fun (t1, t2, _) ->
      List.iter
        (fun p -> Hashtbl.replace own (Topo_graph.Schema_graph.path_key p) ())
        (Topo_graph.Schema_graph.paths ctx.Context.schema ~from_:t1 ~to_:t2 ~max_len:ctx.Context.l))
    engine.Engine.build_stats;
  Array.to_list pool
  |> List.filter (fun key -> not (Hashtbl.mem own key))
  |> List.map (fun key ->
         match Context.class_path ctx key with
         | { Topo_graph.Schema_graph.types; _ } -> (types.(0), types.(Array.length types - 1))
         | exception Not_found -> fail "save: class key %s has no registered schema path" key)
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Save                                                                *)

let save (engine : Engine.t) ~path =
  let ctx = engine.Engine.ctx in
  let catalog = ctx.Context.catalog in
  let interner = ctx.Context.interner in
  let fingerprint = Engine.fingerprint engine in
  let topologies = Topology.all ctx.Context.registry in
  let stores =
    List.map
      (fun (t1, t2, _) ->
        match Hashtbl.find_opt ctx.Context.stores (t1, t2) with
        | Some s -> s
        | None -> fail "save: no store for built pair %s-%s" t1 t2)
      engine.Engine.build_stats
  in
  (* Class-key pool: decomposition keys repeat heavily; intern them into
     one string pool, first-seen order. *)
  let pool_ids = Hashtbl.create 256 in
  let pool = Topo_util.Dyn.create () in
  let pool_id s =
    match Hashtbl.find_opt pool_ids s with
    | Some i -> i
    | None ->
        let i = Topo_util.Dyn.length pool in
        Topo_util.Dyn.push pool s;
        Hashtbl.add pool_ids s i;
        i
  in
  List.iter
    (fun (t : Topology.t) ->
      List.iter
        (fun d -> List.iter (fun key -> ignore (pool_id key)) d)
        (Atomic.get t.Topology.decompositions))
    topologies;
  let body = Buffer.create (1 lsl 20) in
  (* 'I' intern pool. *)
  Buffer.add_char body 'I';
  Wire.w_u32 body (Topo_util.Interner.count interner);
  Topo_util.Interner.iter (fun _ name -> Wire.w_str body name) interner;
  (* 'G' class-key pool. *)
  Buffer.add_char body 'G';
  let pool_arr = Topo_util.Dyn.to_array pool in
  Wire.w_u32 body (Array.length pool_arr);
  Array.iter (fun s -> Wire.w_str body s) pool_arr;
  (* 'C' catalog tables, registration order, column-major cells. *)
  let tables = Catalog.tables catalog in
  Buffer.add_char body 'C';
  Wire.w_u32 body (List.length tables);
  List.iter
    (fun tb ->
      let name = Table.name tb in
      let schema = Table.schema tb in
      let cols = Schema.columns schema in
      Wire.w_str body name;
      Wire.w_u32 body (Array.length cols);
      Array.iter
        (fun (c : Schema.column) ->
          Wire.w_str body c.Schema.name;
          Wire.w_u8 body (ty_tag c.Schema.ty))
        cols;
      (match Table.primary_key tb with
      | None -> Wire.w_u8 body 0
      | Some pk ->
          Wire.w_u8 body 1;
          Wire.w_str body pk);
      let rows = Table.rows tb in
      let n = Array.length rows in
      Wire.w_i64 body n;
      Array.iteri
        (fun ci (c : Schema.column) ->
          Array.iter (fun row -> Wire.w_u8 body (cell_tag (Tuple.get row ci))) rows;
          match c.Schema.ty with
          | Schema.TInt | Schema.TFloat ->
              (* Fixed-width 8-byte lane, one slot per row. *)
              Array.iter
                (fun row ->
                  match Tuple.get row ci with
                  | Value.Null -> Wire.w_i64 body 0
                  | Value.Int x -> Wire.w_i64 body x
                  | Value.Float f -> Wire.w_f64 body f
                  | Value.Str s ->
                      fail "save: string value %S in numeric column %s.%s" s name c.Schema.name)
                rows
          | Schema.TStr ->
              Array.iter
                (fun row ->
                  match Tuple.get row ci with
                  | Value.Null -> ()
                  | Value.Int x -> Wire.w_i64 body x
                  | Value.Float f -> Wire.w_f64 body f
                  | Value.Str s -> Wire.w_str body s)
                rows)
        cols)
    tables;
  (* 'T' topology registry, TID order. *)
  Buffer.add_char body 'T';
  Wire.w_u32 body (List.length topologies);
  List.iter
    (fun (t : Topology.t) ->
      let g = t.Topology.graph in
      Wire.w_str body t.Topology.key;
      let nodes = Topo_graph.Lgraph.nodes g in
      Wire.w_u32 body (List.length nodes);
      List.iter
        (fun id ->
          Wire.w_i64 body id;
          Wire.w_i64 body (Topo_graph.Lgraph.node_label g id))
        nodes;
      let edges = Topo_graph.Lgraph.edges g in
      Wire.w_u32 body (List.length edges);
      List.iter
        (fun { Topo_graph.Lgraph.u; v; label } ->
          Wire.w_i64 body u;
          Wire.w_i64 body v;
          Wire.w_i64 body label)
        edges;
      let decompositions = Atomic.get t.Topology.decompositions in
      Wire.w_u32 body (List.length decompositions);
      List.iter
        (fun d ->
          Wire.w_u32 body (List.length d);
          List.iter (fun key -> Wire.w_u32 body (pool_id key)) d)
        decompositions)
    topologies;
  (* 'B' build configuration and sweep statistics. *)
  Buffer.add_char body 'B';
  Wire.w_u32 body ctx.Context.l;
  Wire.w_i64 body ctx.Context.caps.Compute.max_reps_per_class;
  Wire.w_i64 body ctx.Context.caps.Compute.max_combos_per_pair;
  Wire.w_i64 body ctx.Context.caps.Compute.max_paths_per_class;
  Wire.w_u32 body (List.length engine.Engine.build_stats);
  List.iter
    (fun (t1, t2, (s : Compute.stats)) ->
      Wire.w_str body t1;
      Wire.w_str body t2;
      Wire.w_i64 body s.Compute.schema_paths;
      Wire.w_i64 body s.Compute.instance_paths;
      Wire.w_i64 body s.Compute.pairs;
      Wire.w_i64 body s.Compute.unions;
      Wire.w_i64 body s.Compute.capped_pairs)
    engine.Engine.build_stats;
  (* 'P' per-pair stores. *)
  Buffer.add_char body 'P';
  Wire.w_u32 body (List.length stores);
  List.iter
    (fun (s : Store.t) ->
      Wire.w_str body s.Store.t1;
      Wire.w_str body s.Store.t2;
      Wire.w_u32 body (List.length s.Store.pruned);
      List.iter (fun (p : Topology.t) -> Wire.w_i64 body p.Topology.tid) s.Store.pruned)
    stores;
  (* 'C' class pairs (flag bit 0), see [class_pairs]. *)
  let class_pairs = class_pairs engine pool_arr in
  if class_pairs <> [] then begin
    Buffer.add_char body 'C';
    Wire.w_u32 body (List.length class_pairs);
    List.iter
      (fun (t1, t2) ->
        Wire.w_str body t1;
        Wire.w_str body t2)
      class_pairs
  end;
  Buffer.add_char body 'E';
  let header = Buffer.create 64 in
  Buffer.add_string header magic;
  Wire.w_u32 header version;
  Wire.w_u32 header (if class_pairs = [] then 0 else 1) (* flags *);
  Wire.w_i64 header (Buffer.length body);
  Wire.w_str header fingerprint;
  (* The engine fingerprint only digests the registry and the derived
     tables; the payload checksum covers every byte, so a flip in base
     data can never load silently. *)
  Wire.w_str header (Digest.to_hex (Digest.string (Buffer.contents body)));
  (try
     Out_channel.with_open_bin path (fun oc ->
         Buffer.output_buffer oc header;
         Buffer.output_buffer oc body)
   with Sys_error msg -> fail "save: cannot write %s: %s" path msg);
  Buffer.length header + Buffer.length body

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

let load path =
  let data =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> fail "cannot open snapshot: %s" msg
  in
  let limit = String.length data in
  (* One bounds-checked cursor over the whole file: every read names what
     it was after, so a truncated or corrupt file fails with the offset
     and the field ("truncated snapshot PATH: ..."). *)
  let r = Wire.reader ~what:("snapshot " ^ path) data in
  let expect marker section =
    let b = Wire.r_u8 r (section ^ " section marker") in
    if b <> Char.code marker then
      fail "corrupt snapshot: expected %s section ('%c') at offset %d, found byte %d" section marker
        (Wire.offset r - 1) b
  in
  (* Header. *)
  let m = String.sub data (Wire.r_skip r (String.length magic) "magic") (String.length magic) in
  if m <> magic then fail "bad magic %S in %s: not a toposearch snapshot (expected %S)" m path magic;
  let file_version = Wire.r_u32 r "version" in
  if file_version <> version then
    fail "unsupported snapshot version %d in %s (this build reads version %d)" file_version path
      version;
  let flags = Wire.r_u32 r "flags" in
  if flags land lnot 1 <> 0 then
    fail "unsupported snapshot flags %#x in %s (this build understands only bit 0)" flags path;
  let payload_len = Wire.r_i64 r "payload length" in
  let fingerprint = Wire.r_str r "fingerprint" in
  let checksum = Wire.r_str r "payload checksum" in
  if limit - Wire.offset r <> payload_len then
    fail "truncated snapshot %s: header promises %d payload byte(s), file has %d" path payload_len
      (limit - Wire.offset r);
  let actual_checksum = Digest.to_hex (Digest.substring data (Wire.offset r) payload_len) in
  if actual_checksum <> checksum then
    fail "corrupt snapshot %s: payload checksum mismatch (header %s, payload digests to %s)" path
      checksum actual_checksum;
  let decode () =
    (* 'I' intern pool: re-intern in id order, verifying density. *)
    expect 'I' "intern pool";
    let interner = Topo_util.Interner.create () in
    let n_interned = Wire.r_count r "interned string count" in
    for i = 0 to n_interned - 1 do
      let s = Wire.r_str r "interned string" in
      let id = Topo_util.Interner.intern interner s in
      if id <> i then fail "corrupt snapshot: interned string %S got id %d, expected %d" s id i
    done;
    (* 'G' class-key pool. *)
    expect 'G' "class-key pool";
    let n_pool = Wire.r_count r "class-key pool size" in
    let pool = Array.make n_pool "" in
    for i = 0 to n_pool - 1 do
      pool.(i) <- Wire.r_str r "class key"
    done;
    let pool_str i =
      if i >= Array.length pool then
        fail "corrupt snapshot: class-key pool index %d out of range (pool has %d)" i
          (Array.length pool);
      pool.(i)
    in
    (* 'C' catalog tables. *)
    expect 'C' "catalog";
    let catalog = Catalog.create () in
    let n_tables = Wire.r_count r "table count" in
    for _ = 1 to n_tables do
      let name = Wire.r_str r "table name" in
      let arity = Wire.r_count r "table arity" in
      let cols =
        Wire.r_list r arity "column" (fun () ->
            let cname = Wire.r_str r "column name" in
            let ty =
              match Wire.r_u8 r "column type" with
              | 0 -> Schema.TInt
              | 1 -> Schema.TFloat
              | 2 -> Schema.TStr
              | k -> fail "corrupt snapshot: unknown column type tag %d in table %s" k name
            in
            { Schema.name = cname; ty })
      in
      let primary_key =
        match Wire.r_u8 r "primary key flag" with
        | 0 -> None
        | 1 -> Some (Wire.r_str r "primary key column")
        | k -> fail "corrupt snapshot: bad primary-key flag %d in table %s" k name
      in
      let schema = Schema.make cols in
      let n = Wire.r_i64 r "row count" in
      if n < 0 || n > limit then
        fail "corrupt snapshot: implausible row count %d for table %s" n name;
      let str_col = Array.of_list (List.map (fun (c : Schema.column) -> c.Schema.ty = Schema.TStr) cols) in
      let arity = Array.length str_col in
      (* Columns are stored one after another but rows are inserted one
         at a time.  First find where each column's tags and payload
         start, checking every tag and length; then decode row by row,
         [at.(ci)] being the next payload byte of column [ci]: a numeric
         column has an 8-byte slot per row, a string column 8 bytes per
         int or float cell and a length-prefixed string per string
         cell. *)
      let tags = Array.make arity 0 and at = Array.make arity 0 in
      let tag ci i = Char.code data.[tags.(ci) + i] in
      for ci = 0 to arity - 1 do
        tags.(ci) <- Wire.r_skip r n "cell tags";
        at.(ci) <- Wire.offset r;
        for i = 0 to n - 1 do
          match tag ci i with
          | 0 when str_col.(ci) -> ()
          | 0 | 1 | 2 -> ignore (Wire.r_skip r 8 "numeric cell")
          | 3 when str_col.(ci) ->
              ignore (Wire.r_skip r (Wire.r_count r "string cell") "string cell")
          | t ->
              fail "corrupt snapshot: unexpected cell tag %d in %s.%s" t name
                (List.nth cols ci).Schema.name
        done
      done;
      let tb = Table.create ~name ~schema ?primary_key () in
      for i = 0 to n - 1 do
        let row = Array.make arity Value.Null in
        for ci = 0 to arity - 1 do
          let p = at.(ci) in
          match tag ci i with
          | 0 -> if not str_col.(ci) then at.(ci) <- p + 8
          | 3 ->
              let len = Int32.to_int (String.get_int32_le data p) in
              row.(ci) <- Value.Str (String.sub data (p + 4) len);
              at.(ci) <- p + 4 + len
          | t ->
              let bits = String.get_int64_le data p in
              row.(ci) <-
                (if t = 1 then Value.Int (Int64.to_int bits) else Value.Float (Int64.float_of_bits bits));
              at.(ci) <- p + 8
        done;
        (* [insert] rejects a repeated primary key; [decode]'s handler
           turns that into [Error]. *)
        Table.insert tb row
      done;
      Catalog.add catalog tb
    done;
    (* 'T' topology registry: re-register in TID order, verify keys. *)
    expect 'T' "topology registry";
    let registry = Topology.create_registry () in
    let n_tops = Wire.r_count r "topology count" in
    for tid = 1 to n_tops do
      let key = Wire.r_str r "topology key" in
      let g = Topo_graph.Lgraph.empty () in
      let n_nodes = Wire.r_count r "topology node count" in
      for _ = 1 to n_nodes do
        let id = Wire.r_i64 r "node id" in
        let label = Wire.r_i64 r "node label" in
        Topo_graph.Lgraph.add_node g ~id ~label
      done;
      let n_edges = Wire.r_count r "topology edge count" in
      for _ = 1 to n_edges do
        let u = Wire.r_i64 r "edge endpoint" in
        let v = Wire.r_i64 r "edge endpoint" in
        let label = Wire.r_i64 r "edge label" in
        Topo_graph.Lgraph.add_edge g ~u ~v ~label
      done;
      let n_decomps = Wire.r_count r "decomposition count" in
      if n_decomps = 0 then fail "corrupt snapshot: topology %d has no decomposition" tid;
      let decompositions =
        Wire.r_list r n_decomps "decomposition" (fun () ->
            let n_keys = Wire.r_count r "decomposition key count" in
            Wire.r_list r n_keys "decomposition key" (fun () ->
                pool_str (Wire.r_u32 r "class-key pool index")))
      in
      let t =
        List.fold_left
          (fun _ d -> Topology.register registry g ~decomposition:d)
          (Topology.register registry g ~decomposition:(List.hd decompositions))
          (List.tl decompositions)
      in
      if t.Topology.tid <> tid || t.Topology.key <> key then
        fail
          "corrupt snapshot: topology %d reconstructed as TID %d with key %s (file records key %s)"
          tid t.Topology.tid t.Topology.key key
    done;
    (* 'B' build configuration. *)
    expect 'B' "build config";
    let l = Wire.r_u32 r "l" in
    let max_reps_per_class = Wire.r_i64 r "max_reps_per_class" in
    let max_combos_per_pair = Wire.r_i64 r "max_combos_per_pair" in
    let max_paths_per_class = Wire.r_i64 r "max_paths_per_class" in
    let caps = { Compute.max_reps_per_class; max_combos_per_pair; max_paths_per_class } in
    let n_pairs = Wire.r_count r "build stats count" in
    let build_stats =
      Wire.r_list r n_pairs "build stats entry" (fun () ->
          let t1 = Wire.r_str r "pair t1" in
          let t2 = Wire.r_str r "pair t2" in
          let schema_paths = Wire.r_i64 r "schema paths" in
          let instance_paths = Wire.r_i64 r "instance paths" in
          let pairs = Wire.r_i64 r "connected pairs" in
          let unions = Wire.r_i64 r "unions" in
          let capped_pairs = Wire.r_i64 r "capped pairs" in
          (t1, t2, { Compute.schema_paths; instance_paths; pairs; unions; capped_pairs }))
    in
    (* The derived graphs are rebuilt, not stored: the data graph and
       schema graph are cheap relative to the sweep, and rebuilding them
       from the restored catalog + interner is exactly what Engine.build
       does.  Labels were all interned before save, so this adds no ids. *)
    let dg = Biozon.Bschema.data_graph catalog interner in
    let schema = Biozon.Bschema.schema_graph () in
    let ctx =
      {
        Context.catalog;
        interner;
        dg;
        schema;
        registry;
        l;
        caps;
        class_paths = Hashtbl.create 256;
        stores = Hashtbl.create 8;
      }
    in
    List.iter (fun (t1, t2, _) -> Context.register_class_paths ctx ~t1 ~t2) build_stats;
    (* 'P' per-pair stores. *)
    expect 'P' "stores";
    let n_stores = Wire.r_count r "store count" in
    for _ = 1 to n_stores do
      let t1 = Wire.r_str r "store t1" in
      let t2 = Wire.r_str r "store t2" in
      let alltops, lefttops, excptops, topinfo = Store.table_names ~t1 ~t2 in
      List.iter
        (fun name ->
          if not (Catalog.mem catalog name) then
            fail "corrupt snapshot: store %s-%s references missing table %s" t1 t2 name)
        [ alltops; lefttops; excptops; topinfo ];
      let n_pruned = Wire.r_count r "pruned count" in
      let pruned = Wire.r_list r n_pruned "pruned topology" (fun () -> Wire.r_i64 r "pruned TID") in
      let store =
        try Store.restore catalog registry ~t1 ~t2 ~pruned
        with Invalid_argument msg -> fail "corrupt snapshot: %s" msg
      in
      Hashtbl.replace ctx.Context.stores (t1, t2) store
    done;
    (* 'C' class pairs (flag bit 0): register schema paths for pairs whose
       sweeps contributed decompositions to this slice's shared registry. *)
    if flags land 1 <> 0 then begin
      expect 'C' "class pairs";
      let n = Wire.r_count r "class pair count" in
      for _ = 1 to n do
        let t1 = Wire.r_str r "class pair t1" in
        let t2 = Wire.r_str r "class pair t2" in
        Context.register_class_paths ctx ~t1 ~t2
      done
    end;
    expect 'E' "end";
    Wire.r_end r;
    { Engine.ctx; build_stats }
  in
  let engine =
    try decode () with
    | Error _ as e -> raise e
    | e ->
        fail "corrupt snapshot %s: decode failed at offset %d: %s" path (Wire.offset r)
          (Printexc.to_string e)
  in
  let actual = Engine.fingerprint engine in
  if actual <> fingerprint then
    fail
      "snapshot fingerprint mismatch in %s: file records %s but the reconstructed engine digests \
       to %s (corrupt or stale snapshot)"
      path fingerprint actual;
  engine

(* ------------------------------------------------------------------ *)
(* Sharded snapshots

   A query always names an entity-set pair, so the pair is the natural
   partition key: hash each pair's canonical orientation-normalized key
   to a shard and give every shard a slice holding only that shard's
   derived tables and stores.  Each slice keeps the full intern pool,
   the full topology registry (global TIDs stay stable, so fingerprints
   compose) and every base table (endpoint predicate evaluation and the
   rebuilt data graph need them; at paper scale the derived AllTops
   tables dominate the footprint anyway).  The slices are ordinary
   snapshots — [load] works unchanged — plus a JSON [manifest] the
   router uses to map pairs to shards and verify who it is talking to. *)

let partition_derivation = "first 4 bytes of MD5(sorted \"t1:t2\") mod shards"

let pair_partition_key ~t1 ~t2 = if t1 <= t2 then t1 ^ ":" ^ t2 else t2 ^ ":" ^ t1

let shard_of_pair ~shards ~t1 ~t2 =
  if shards <= 0 then fail "shard_of_pair: shard count must be positive, got %d" shards;
  let d = Digest.string (pair_partition_key ~t1 ~t2) in
  let h =
    (Char.code d.[0] lsl 24)
    lor (Char.code d.[1] lsl 16)
    lor (Char.code d.[2] lsl 8)
    lor Char.code d.[3]
  in
  h mod shards

let shard_path ~dir k = Filename.concat dir (Printf.sprintf "shard-%d.snap" k)

let manifest_path dir = Filename.concat dir "manifest"

type manifest = {
  shards : int;
  derivation : string;
  pairs : (string * string * int) list;  (* t1, t2, shard — build orientation *)
  fingerprints : string array;  (* per-shard engine fingerprint *)
}

let manifest_shard m ~t1 ~t2 =
  let s = shard_of_pair ~shards:m.shards ~t1 ~t2 in
  if
    List.exists
      (fun (a, b, _) -> pair_partition_key ~t1:a ~t2:b = pair_partition_key ~t1 ~t2)
      m.pairs
  then Some s
  else None

(* A shard's engine: the shared base plus only its own pairs.  The
   filtered catalog preserves registration order (table identity is
   shared with the parent — slicing copies nothing but the lists). *)
let slice_engine (engine : Engine.t) ~shards ~shard =
  let ctx = engine.Engine.ctx in
  let keep_pair t1 t2 = shard_of_pair ~shards ~t1 ~t2 = shard in
  let build_stats =
    List.filter (fun (t1, t2, _) -> keep_pair t1 t2) engine.Engine.build_stats
  in
  let dropped = Hashtbl.create 16 in
  List.iter
    (fun (t1, t2, _) ->
      if not (keep_pair t1 t2) then begin
        let alltops, lefttops, excptops, topinfo = Store.table_names ~t1 ~t2 in
        List.iter (fun n -> Hashtbl.replace dropped n ()) [ alltops; lefttops; excptops; topinfo ]
      end)
    engine.Engine.build_stats;
  let catalog = Catalog.create () in
  List.iter
    (fun tb -> if not (Hashtbl.mem dropped (Table.name tb)) then Catalog.add catalog tb)
    (Catalog.tables ctx.Context.catalog);
  let stores = Hashtbl.create (max 8 (List.length build_stats)) in
  List.iter
    (fun (t1, t2, _) ->
      match Hashtbl.find_opt ctx.Context.stores (t1, t2) with
      | Some s -> Hashtbl.replace stores (t1, t2) s
      | None -> fail "save_sharded: no store for built pair %s-%s" t1 t2)
    build_stats;
  let ctx = { ctx with Context.catalog; stores } in
  { Engine.ctx; build_stats }

let render_manifest m =
  let module J = Topo_obs.Json in
  J.to_string ~pretty:true
    (J.Obj
       [
         ("version", J.int version);
         ("shards", J.int m.shards);
         ("partition", J.Str m.derivation);
         ( "pairs",
           J.Arr
             (List.map
                (fun (t1, t2, s) ->
                  J.Obj [ ("t1", J.Str t1); ("t2", J.Str t2); ("shard", J.int s) ])
                m.pairs) );
         ("fingerprints", J.Arr (Array.to_list (Array.map (fun f -> J.Str f) m.fingerprints)));
       ])

let save_sharded (engine : Engine.t) ~dir ~shards =
  if shards <= 0 then fail "save_sharded: shard count must be positive, got %d" shards;
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then fail "save_sharded: %s exists and is not a directory" dir;
  let pairs =
    List.map
      (fun (t1, t2, _) -> (t1, t2, shard_of_pair ~shards ~t1 ~t2))
      engine.Engine.build_stats
  in
  let fingerprints = Array.make shards "" in
  let total = ref 0 in
  for k = 0 to shards - 1 do
    let slice = slice_engine engine ~shards ~shard:k in
    fingerprints.(k) <- Engine.fingerprint slice;
    total := !total + save slice ~path:(shard_path ~dir k)
  done;
  let m = { shards; derivation = partition_derivation; pairs; fingerprints } in
  let text = render_manifest m in
  (try
     Out_channel.with_open_bin (manifest_path dir) (fun oc ->
         Out_channel.output_string oc text;
         Out_channel.output_char oc '\n')
   with Sys_error msg -> fail "save_sharded: cannot write manifest: %s" msg);
  (m, !total + String.length text + 1)

let load_manifest dir =
  let path = manifest_path dir in
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> fail "cannot open manifest: %s" msg
  in
  let module J = Topo_obs.Json in
  let v = match J.parse text with Ok v -> v | Error msg -> fail "corrupt manifest %s: %s" path msg in
  let field name =
    match J.member name v with
    | Some f -> f
    | None -> fail "corrupt manifest %s: missing field %S" path name
  in
  let as_int what = function
    | J.Num f when Float.is_integer f -> int_of_float f
    | _ -> fail "corrupt manifest %s: %s is not an integer" path what
  in
  let as_str what = function
    | J.Str s -> s
    | _ -> fail "corrupt manifest %s: %s is not a string" path what
  in
  let mversion = as_int "version" (field "version") in
  if mversion <> version then
    fail "unsupported manifest version %d in %s (this build reads version %d)" mversion path version;
  let shards = as_int "shards" (field "shards") in
  if shards <= 0 then fail "corrupt manifest %s: shard count %d" path shards;
  let derivation = as_str "partition" (field "partition") in
  if derivation <> partition_derivation then
    fail "manifest %s uses partition %S; this build derives shards by %S" path derivation
      partition_derivation;
  let pairs =
    match field "pairs" with
    | J.Arr items ->
        List.map
          (fun item ->
            let pf name =
              match J.member name item with
              | Some f -> f
              | None -> fail "corrupt manifest %s: pair entry missing %S" path name
            in
            let t1 = as_str "pair t1" (pf "t1") in
            let t2 = as_str "pair t2" (pf "t2") in
            let s = as_int "pair shard" (pf "shard") in
            if s < 0 || s >= shards then
              fail "corrupt manifest %s: pair %s-%s maps to shard %d of %d" path t1 t2 s shards;
            if shard_of_pair ~shards ~t1 ~t2 <> s then
              fail "corrupt manifest %s: pair %s-%s recorded on shard %d but derives to %d" path t1
                t2 s
                (shard_of_pair ~shards ~t1 ~t2);
            (t1, t2, s))
          items
    | _ -> fail "corrupt manifest %s: pairs is not an array" path
  in
  let fingerprints =
    match field "fingerprints" with
    | J.Arr items when List.length items = shards ->
        Array.of_list (List.map (fun f -> as_str "fingerprint" f) items)
    | J.Arr items ->
        fail "corrupt manifest %s: %d fingerprint(s) for %d shard(s)" path (List.length items)
          shards
    | _ -> fail "corrupt manifest %s: fingerprints is not an array" path
  in
  { shards; derivation; pairs; fingerprints }
