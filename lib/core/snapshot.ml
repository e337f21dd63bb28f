(* Binary snapshots of the offline build output.

   [Snapshot_format] describes the bytes, one codec per section; this
   module lays the sections out in file order ([payload]), turns an
   engine into their values and back, and runs the checks that span
   sections, after the decode: interned ids are dense, every topology
   re-registers under its TID and key, every store's tables exist, every
   TID a store's TopInfo lists has a derivation of that store's own, and
   the reconstructed engine reproduces the [Engine.fingerprint] recorded
   at save time.

   The file holds what the build produced and nothing derivable from it,
   so saving after serving writes the bytes saving after the build does.
   A store's frequencies (TopInfo's freq column), its Card_i, the sweep's
   pair rows, table statistics and indexes are all derived again on
   load or on first use; the pruned TIDs are saved, because their tie
   order comes from the build's hash-table fold. *)

open Topo_sql
module F = Snapshot_format

exception Error = Wire.Error

let fail = Wire.fail

let version = 5

(* The payload: every section, in file order. *)
type payload = {
  interned : string list;
  class_keys : string list;
  catalog : Catalog.t;
  topologies : F.topology list;
  build : int * Compute.caps * (string * string * Compute.stats) list;
  stores : (string * string * int list) list;
}

let payload =
  Wire.(
    record (fun interned class_keys catalog topologies build stores () ->
        { interned; class_keys; catalog; topologies; build; stores })
    |+ (F.interned, fun p -> p.interned)
    |+ (F.class_keys, fun p -> p.class_keys)
    |+ (F.catalog, fun p -> p.catalog)
    |+ (F.topologies, fun p -> p.topologies)
    |+ (F.build, fun p -> p.build)
    |+ (F.stores, fun p -> p.stores)
    |+ (F.end_marker, fun _ -> ())
    |> seal)

(* ------------------------------------------------------------------ *)
(* Save                                                                *)

let save (engine : Engine.t) ~path =
  let ctx = engine.Engine.ctx in
  let interner = ctx.Context.interner in
  let topologies = Topology.all ctx.Context.registry in
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
  let topologies =
    List.map
      (fun (t : Topology.t) ->
        let g = t.Topology.graph in
        {
          F.key = t.Topology.key;
          nodes = List.map (fun id -> (id, Topo_graph.Lgraph.node_label g id)) (Topo_graph.Lgraph.nodes g);
          edges = Topo_graph.Lgraph.edges g;
          decompositions = List.map (List.map pool_id) t.Topology.decompositions;
        })
      topologies
  in
  let class_keys = Array.to_list (Topo_util.Dyn.to_array pool) in
  let stores =
    List.map
      (fun (t1, t2, _) ->
        match Hashtbl.find_opt ctx.Context.stores (t1, t2) with
        | Some s -> (t1, t2, s.Store.pruned)
        | None -> fail "save: no store for built pair %s-%s" t1 t2)
      engine.Engine.build_stats
  in
  let body =
    Wire.encode payload
      {
        interned = List.init (Topo_util.Interner.count interner) (Topo_util.Interner.name interner);
        class_keys;
        catalog = ctx.Context.catalog;
        topologies;
        build = (ctx.Context.l, ctx.Context.caps, engine.Engine.build_stats);
        stores;
      }
  in
  (* The engine fingerprint only digests the registry and the derived
     tables; the payload checksum covers every byte, so a flip in base
     data can never load silently. *)
  let header =
    Wire.encode F.header
      {
        F.version;
        payload_length = String.length body;
        fingerprint = Engine.fingerprint engine;
        checksum = Digest.to_hex (Digest.string body);
      }
  in
  (try
     Out_channel.with_open_bin path (fun oc ->
         Out_channel.output_string oc header;
         Out_channel.output_string oc body)
   with Sys_error msg -> fail "save: cannot write %s: %s" path msg);
  String.length header + String.length body

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

(* The engine a decoded payload describes, checking what no one section
   can. *)
let engine_of p =
  let interner = Topo_util.Interner.create () in
  List.iteri
    (fun i s ->
      let id = Topo_util.Interner.intern interner s in
      if id <> i then fail "corrupt snapshot: interned string %S got id %d, expected %d" s id i)
    p.interned;
  let pool = Array.of_list p.class_keys in
  let pool_str i =
    if i >= Array.length pool then
      fail "corrupt snapshot: class-key pool index %d out of range (pool has %d)" i (Array.length pool);
    pool.(i)
  in
  let builder = Topology.builder () in
  List.iteri
    (fun i (t : F.topology) ->
      let tid = i + 1 in
      let g = Topo_graph.Lgraph.empty () in
      List.iter (fun (id, label) -> Topo_graph.Lgraph.add_node g ~id ~label) t.F.nodes;
      List.iter (fun { Topo_graph.Lgraph.u; v; label } -> Topo_graph.Lgraph.add_edge g ~u ~v ~label) t.F.edges;
      match List.map (List.map pool_str) t.F.decompositions with
      | [] -> fail "corrupt snapshot: topology %d has no decomposition" tid
      | d :: ds ->
          let register d = Topology.register builder (Lazy.from_val g) ~decomposition:d in
          let r = List.fold_left (fun _ d -> register d) (register d) ds in
          if r.Topology.tid <> tid || r.Topology.key <> t.F.key then
            fail "corrupt snapshot: topology %d reconstructed as TID %d with key %s (file records key %s)"
              tid r.Topology.tid r.Topology.key t.F.key)
    p.topologies;
  let registry = Topology.freeze builder in
  let l, caps, build_stats = p.build in
  let catalog = p.catalog in
  (* The derived graphs are rebuilt, not stored: the data graph and
     schema graph are cheap relative to the sweep, and rebuilding them
     from the restored catalog + interner is exactly what Engine.build
     does.  Labels were all interned before save, so this adds no ids. *)
  let ctx =
    {
      Context.catalog;
      interner;
      dg = Biozon.Bschema.data_graph catalog interner;
      schema = Biozon.Bschema.schema_graph ();
      registry;
      l;
      caps;
      class_paths = Hashtbl.create 256;
      stores = Hashtbl.create 8;
    }
  in
  List.iter (fun (t1, t2, _) -> Context.register_class_paths ctx ~t1 ~t2) build_stats;
  List.iter
    (fun (t1, t2, pruned) ->
      let alltops, lefttops, excptops, topinfo = Store.table_names ~t1 ~t2 in
      List.iter
        (fun name ->
          if not (Catalog.mem catalog name) then
            fail "corrupt snapshot: store %s-%s references missing table %s" t1 t2 name)
        [ alltops; lefttops; excptops; topinfo ];
      let class_keys =
        List.map Topo_graph.Schema_graph.path_key
          (Compute.schema_paths_between ctx.Context.schema ~t1 ~t2 ~l)
      in
      let store =
        try Store.restore catalog registry ~class_keys ~t1 ~t2 ~pruned
        with Invalid_argument msg -> fail "corrupt snapshot: %s" msg
      in
      Hashtbl.replace ctx.Context.stores (t1, t2) store)
    p.stores;
  { Engine.ctx; build_stats }

let load path =
  let data =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> fail "cannot open snapshot: %s" msg
  in
  (* One bounds-checked cursor over the whole file: every read names what
     it was after, so a truncated or corrupt file fails with the offset
     and the field ("truncated snapshot PATH: ..."). *)
  let r = Wire.reader ~what:("snapshot " ^ path) data in
  let h = F.header.Wire.read r in
  if h.F.version <> version then
    fail "unsupported snapshot version %d in %s (this build reads version %d)" h.F.version path version;
  let at = Wire.offset r in
  if String.length data - at <> h.F.payload_length then
    fail "truncated snapshot %s: header promises %d payload byte(s), file has %d" path h.F.payload_length
      (String.length data - at);
  let actual_checksum = Digest.to_hex (Digest.substring data at h.F.payload_length) in
  if actual_checksum <> h.F.checksum then
    fail "corrupt snapshot %s: payload checksum mismatch (header %s, payload digests to %s)" path
      h.F.checksum actual_checksum;
  let engine =
    try
      let p = payload.Wire.read r in
      Wire.r_end r;
      engine_of p
    with
    | Error _ as e -> raise e
    | e ->
        fail "corrupt snapshot %s: decode failed at offset %d: %s" path (Wire.offset r)
          (Printexc.to_string e)
  in
  let actual = Engine.fingerprint engine in
  if actual <> h.F.fingerprint then
    fail
      "snapshot fingerprint mismatch in %s: file records %s but the reconstructed engine digests \
       to %s (corrupt or stale snapshot)"
      path h.F.fingerprint actual;
  engine

(* ------------------------------------------------------------------ *)
(* Sharded snapshots

   A query always names an entity-set pair, so the pair is the natural
   partition key: hash each pair's canonical orientation-normalized key
   to a shard and give every shard a slice holding only that shard's
   derived tables and stores.  Each slice keeps the full intern pool,
   the full topology registry (global TIDs stay stable, so fingerprints
   compose; each store reads only its own pair's derivations from it)
   and every base table (endpoint predicate evaluation and the
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
  let field ?(of_ = v) name =
    match J.member name of_ with
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
  let as_list what = function
    | J.Arr items -> items
    | _ -> fail "corrupt manifest %s: %s is not an array" path what
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
    List.map
      (fun item ->
        let t1 = as_str "pair t1" (field ~of_:item "t1") in
        let t2 = as_str "pair t2" (field ~of_:item "t2") in
        let s = as_int "pair shard" (field ~of_:item "shard") in
        if s < 0 || s >= shards then
          fail "corrupt manifest %s: pair %s-%s maps to shard %d of %d" path t1 t2 s shards;
        if shard_of_pair ~shards ~t1 ~t2 <> s then
          fail "corrupt manifest %s: pair %s-%s recorded on shard %d but derives to %d" path t1 t2 s
            (shard_of_pair ~shards ~t1 ~t2);
        (t1, t2, s))
      (as_list "pairs" (field "pairs"))
  in
  let fingerprints = as_list "fingerprints" (field "fingerprints") in
  if List.length fingerprints <> shards then
    fail "corrupt manifest %s: %d fingerprint(s) for %d shard(s)" path (List.length fingerprints) shards;
  { shards; derivation; pairs; fingerprints = Array.of_list (List.map (as_str "fingerprint") fingerprints) }
