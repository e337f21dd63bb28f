(* Binary snapshot codec for the offline build output.

   Layout (all integers little-endian):

     header   "TOPOSNAP" | version u32 | flags u32 | payload length u64
              | fingerprint (length-prefixed hex digest)
     payload  'I' intern pool        strings in id order
              'G' class-key pool     the distinct path-class keys referenced
                                     by decompositions and store rows
              'C' catalog            every table: name, schema, primary key,
                                     then column-major cell data
              'X' index specs        (kind, column names) per table
              'S' statistics        histograms + samples per table
              'T' topology registry  graphs + decompositions in TID order
              'B' build config       l, caps, jobs, per-pair sweep stats
              'P' stores             pruned TIDs, frequencies, pair rows
              'E' end marker

   Table cells are column-major: one tag byte per cell (null/int/float/
   string), then — for columns declared numeric — a fixed-width 8-byte
   payload per row (ints as-is, floats by bit pattern).  String columns
   store length-prefixed bytes per non-null cell, and the 8-byte value of
   an int or float cell.  The loader decodes each cell by its tag into
   the rows of an ordinary table.

   The loader bounds-checks every read and converts any decode failure
   into [Error] with the offset and what was being read; after
   reconstruction it recomputes [Engine.fingerprint] and refuses to return
   an engine that does not reproduce the digest recorded at save time. *)

open Topo_sql

exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

let magic = "TOPOSNAP"

let version = 1

(* ------------------------------------------------------------------ *)
(* Writer primitives (Buffer-streamed)                                 *)

let w_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let w_u32 buf n =
  if n < 0 then fail "save: negative length %d" n;
  Buffer.add_int32_le buf (Int32.of_int n)

let w_i64 buf n = Buffer.add_int64_le buf (Int64.of_int n)

let w_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let w_str buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

let w_value buf = function
  | Value.Null -> w_u8 buf 0
  | Value.Int n ->
      w_u8 buf 1;
      w_i64 buf n
  | Value.Float f ->
      w_u8 buf 2;
      w_f64 buf f
  | Value.Str s ->
      w_u8 buf 3;
      w_str buf s

let cell_tag = function Value.Null -> 0 | Value.Int _ -> 1 | Value.Float _ -> 2 | Value.Str _ -> 3

let ty_tag = function Schema.TInt -> 0 | Schema.TFloat -> 1 | Schema.TStr -> 2

let kind_tag = function Index.Hash -> 0 | Index.Sorted -> 1

(* ------------------------------------------------------------------ *)
(* Save                                                                *)

let save ?(class_pairs = []) (engine : Engine.t) ~path =
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
  (* Class-key pool: decomposition keys and row class keys repeat heavily;
     intern them into one string pool, first-seen order. *)
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
  List.iter
    (fun (s : Store.t) ->
      List.iter
        (fun (r : Compute.pair_row) ->
          List.iter (fun key -> ignore (pool_id key)) r.Compute.class_keys)
        s.Store.rows)
    stores;
  let body = Buffer.create (1 lsl 20) in
  (* 'I' intern pool. *)
  Buffer.add_char body 'I';
  w_u32 body (Topo_util.Interner.count interner);
  Topo_util.Interner.iter (fun _ name -> w_str body name) interner;
  (* 'G' class-key pool. *)
  Buffer.add_char body 'G';
  let pool_arr = Topo_util.Dyn.to_array pool in
  w_u32 body (Array.length pool_arr);
  Array.iter (fun s -> w_str body s) pool_arr;
  (* 'C' catalog tables, registration order, column-major cells. *)
  let tables = Catalog.tables catalog in
  Buffer.add_char body 'C';
  w_u32 body (List.length tables);
  List.iter
    (fun tb ->
      let name = Table.name tb in
      let schema = Table.schema tb in
      let cols = Schema.columns schema in
      w_str body name;
      w_u32 body (Array.length cols);
      Array.iter
        (fun (c : Schema.column) ->
          w_str body c.Schema.name;
          w_u8 body (ty_tag c.Schema.ty))
        cols;
      (match Table.primary_key tb with
      | None -> w_u8 body 0
      | Some pk ->
          w_u8 body 1;
          w_str body pk);
      let rows = Table.rows tb in
      let n = Array.length rows in
      w_i64 body n;
      Array.iteri
        (fun ci (c : Schema.column) ->
          Array.iter (fun row -> w_u8 body (cell_tag (Tuple.get row ci))) rows;
          match c.Schema.ty with
          | Schema.TInt | Schema.TFloat ->
              (* Fixed-width 8-byte lane, one slot per row. *)
              Array.iter
                (fun row ->
                  match Tuple.get row ci with
                  | Value.Null -> w_i64 body 0
                  | Value.Int x -> w_i64 body x
                  | Value.Float f -> w_f64 body f
                  | Value.Str s ->
                      fail "save: string value %S in numeric column %s.%s" s name c.Schema.name)
                rows
          | Schema.TStr ->
              Array.iter
                (fun row ->
                  match Tuple.get row ci with
                  | Value.Null -> ()
                  | Value.Int x -> w_i64 body x
                  | Value.Float f -> w_f64 body f
                  | Value.Str s -> w_str body s)
                rows)
        cols)
    tables;
  (* 'X' index specs, same table order. *)
  Buffer.add_char body 'X';
  List.iter
    (fun tb ->
      let specs = Table.index_specs tb in
      w_u32 body (List.length specs);
      List.iter
        (fun (kind, cols) ->
          w_u8 body (kind_tag kind);
          w_u32 body (List.length cols);
          List.iter (fun c -> w_str body c) cols)
        specs)
    tables;
  (* 'S' statistics, same table order (computed now if not yet cached). *)
  Buffer.add_char body 'S';
  w_u32 body (List.length tables);
  List.iter
    (fun tb ->
      let name = Table.name tb in
      let st = Catalog.stats catalog name in
      w_str body name;
      w_i64 body (Table_stats.row_count st);
      w_f64 body (Table_stats.avg_row_width st);
      let ncols = Table_stats.columns st in
      w_u32 body ncols;
      for ci = 0 to ncols - 1 do
        let h = Table_stats.histogram st ci in
        w_i64 body (Histogram.total h);
        w_i64 body (Histogram.null_count h);
        w_i64 body (Histogram.distinct h);
        let buckets = Histogram.buckets h in
        w_u32 body (Array.length buckets);
        Array.iter
          (fun (lo, hi, count, d) ->
            w_value body lo;
            w_value body hi;
            w_i64 body count;
            w_i64 body d)
          buckets;
        let mcv = Histogram.mcv h in
        w_u32 body (Array.length mcv);
        Array.iter
          (fun (v, c) ->
            w_value body v;
            w_i64 body c)
          mcv;
        let sample = Table_stats.sample st ci in
        w_u32 body (Array.length sample);
        Array.iter (fun v -> w_value body v) sample
      done)
    tables;
  (* 'T' topology registry, TID order. *)
  Buffer.add_char body 'T';
  w_u32 body (List.length topologies);
  List.iter
    (fun (t : Topology.t) ->
      let g = t.Topology.graph in
      w_str body t.Topology.key;
      let nodes = Topo_graph.Lgraph.nodes g in
      w_u32 body (List.length nodes);
      List.iter
        (fun id ->
          w_i64 body id;
          w_i64 body (Topo_graph.Lgraph.node_label g id))
        nodes;
      let edges = Topo_graph.Lgraph.edges g in
      w_u32 body (List.length edges);
      List.iter
        (fun { Topo_graph.Lgraph.u; v; label } ->
          w_i64 body u;
          w_i64 body v;
          w_i64 body label)
        edges;
      let decompositions = Atomic.get t.Topology.decompositions in
      w_u32 body (List.length decompositions);
      List.iter
        (fun d ->
          w_u32 body (List.length d);
          List.iter (fun key -> w_u32 body (pool_id key)) d)
        decompositions)
    topologies;
  (* 'B' build configuration and sweep statistics. *)
  Buffer.add_char body 'B';
  w_u32 body ctx.Context.l;
  w_i64 body ctx.Context.caps.Compute.max_reps_per_class;
  w_i64 body ctx.Context.caps.Compute.max_combos_per_pair;
  w_i64 body ctx.Context.caps.Compute.max_paths_per_class;
  w_u32 body engine.Engine.jobs;
  w_u32 body (List.length engine.Engine.build_stats);
  List.iter
    (fun (t1, t2, (s : Compute.stats)) ->
      w_str body t1;
      w_str body t2;
      w_i64 body s.Compute.schema_paths;
      w_i64 body s.Compute.instance_paths;
      w_i64 body s.Compute.pairs;
      w_i64 body s.Compute.unions;
      w_i64 body s.Compute.capped_pairs)
    engine.Engine.build_stats;
  (* 'P' per-pair stores. *)
  Buffer.add_char body 'P';
  w_u32 body (List.length stores);
  List.iter
    (fun (s : Store.t) ->
      w_str body s.Store.t1;
      w_str body s.Store.t2;
      w_u32 body (List.length s.Store.pruned);
      List.iter (fun (p : Topology.t) -> w_i64 body p.Topology.tid) s.Store.pruned;
      let freqs =
        Hashtbl.fold (fun tid freq acc -> (tid, freq) :: acc) s.Store.frequencies []
        |> List.sort compare
      in
      w_u32 body (List.length freqs);
      List.iter
        (fun (tid, freq) ->
          w_i64 body tid;
          w_i64 body freq)
        freqs;
      w_i64 body (List.length s.Store.rows);
      List.iter
        (fun (r : Compute.pair_row) ->
          w_i64 body r.Compute.a;
          w_i64 body r.Compute.b;
          w_u32 body (List.length r.Compute.tids);
          List.iter (fun tid -> w_i64 body tid) r.Compute.tids;
          w_u32 body (List.length r.Compute.class_keys);
          List.iter (fun key -> w_u32 body (pool_id key)) r.Compute.class_keys)
        s.Store.rows)
    stores;
  (* 'C' class pairs (flag bit 0): pairs the registry's topologies may
     carry decomposition classes for, beyond this engine's own built
     pairs.  A shard slice keeps the full registry, and the registry
     dedupes canonical topologies across pairs — so a topology observed
     on this slice's pair can hold decompositions recorded during
     another pair's sweep.  Loading must register those pairs' schema
     paths too, or probe methods hit unknown class keys. *)
  (match class_pairs with
  | [] -> ()
  | pairs ->
      Buffer.add_char body 'C';
      w_u32 body (List.length pairs);
      List.iter
        (fun (t1, t2) ->
          w_str body t1;
          w_str body t2)
        pairs);
  Buffer.add_char body 'E';
  let header = Buffer.create 64 in
  Buffer.add_string header magic;
  w_u32 header version;
  w_u32 header (if class_pairs = [] then 0 else 1) (* flags *);
  w_i64 header (Buffer.length body);
  w_str header fingerprint;
  (* The engine fingerprint only digests the registry and the derived
     tables; the payload checksum covers every byte, so a flip in base
     data can never load silently. *)
  w_str header (Digest.to_hex (Digest.string (Buffer.contents body)));
  (match open_out_bin path with
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Buffer.output_buffer oc header;
          Buffer.output_buffer oc body)
  | exception Sys_error msg -> fail "save: cannot write %s: %s" path msg);
  Buffer.length header + Buffer.length body

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

let load path =
  let data =
    match open_in_bin path with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
    | exception Sys_error msg -> fail "cannot open snapshot: %s" msg
  in
  let limit = String.length data in
  let pos = ref 0 in
  (* Bounds-checked primitives: every read names what it was after, so a
     truncated or corrupt file fails with the offset and the field. *)
  let need n what =
    if n < 0 || !pos + n > limit then
      fail "truncated snapshot %s: need %d byte(s) for %s at offset %d of %d" path n what !pos limit
  in
  let r_u8 what =
    need 1 what;
    let c = Char.code data.[!pos] in
    pos := !pos + 1;
    c
  in
  let r_u32 what =
    need 4 what;
    let v = Int32.to_int (String.get_int32_le data !pos) in
    pos := !pos + 4;
    if v < 0 then fail "corrupt snapshot: negative %s (%d) at offset %d" what v (!pos - 4);
    v
  in
  let r_i64 what =
    need 8 what;
    let v = String.get_int64_le data !pos in
    pos := !pos + 8;
    v
  in
  let r_int what = Int64.to_int (r_i64 what) in
  let r_f64 what = Int64.float_of_bits (r_i64 what) in
  let r_count what =
    let n = r_u32 what in
    (* Every counted element occupies at least one byte: anything bigger
       than the file is a corrupt length, not a big section. *)
    if n > limit then fail "corrupt snapshot: implausible %s %d (file is %d bytes)" what n limit;
    n
  in
  let r_str what =
    let n = r_count what in
    need n what;
    let s = String.sub data !pos n in
    pos := !pos + n;
    s
  in
  let r_value what =
    match r_u8 what with
    | 0 -> Value.Null
    | 1 -> Value.Int (r_int what)
    | 2 -> Value.Float (r_f64 what)
    | 3 -> Value.Str (r_str what)
    | k -> fail "corrupt snapshot: unknown value tag %d reading %s at offset %d" k what (!pos - 1)
  in
  (* Explicit recursion: List.init's evaluation order is unspecified, and
     the element reader advances [pos]. *)
  let r_list n _what f =
    let rec go i acc = if i = n then List.rev acc else go (i + 1) (f () :: acc) in
    go 0 []
  in
  let expect marker section =
    let b = r_u8 (section ^ " section marker") in
    if b <> Char.code marker then
      fail "corrupt snapshot: expected %s section ('%c') at offset %d, found byte %d" section marker
        (!pos - 1) b
  in
  (* Header. *)
  need (String.length magic) "magic";
  let m = String.sub data 0 (String.length magic) in
  pos := String.length magic;
  if m <> magic then fail "bad magic %S in %s: not a toposearch snapshot (expected %S)" m path magic;
  let file_version = r_u32 "version" in
  if file_version <> version then
    fail "unsupported snapshot version %d in %s (this build reads version %d)" file_version path
      version;
  let flags = r_u32 "flags" in
  if flags land lnot 1 <> 0 then
    fail "unsupported snapshot flags %#x in %s (this build understands only bit 0)" flags path;
  let payload_len = r_int "payload length" in
  let fingerprint = r_str "fingerprint" in
  let checksum = r_str "payload checksum" in
  if limit - !pos <> payload_len then
    fail "truncated snapshot %s: header promises %d payload byte(s), file has %d" path payload_len
      (limit - !pos);
  let actual_checksum = Digest.to_hex (Digest.substring data !pos payload_len) in
  if actual_checksum <> checksum then
    fail "corrupt snapshot %s: payload checksum mismatch (header %s, payload digests to %s)" path
      checksum actual_checksum;
  let decode () =
    (* 'I' intern pool: re-intern in id order, verifying density. *)
    expect 'I' "intern pool";
    let interner = Topo_util.Interner.create () in
    let n_interned = r_count "interned string count" in
    for i = 0 to n_interned - 1 do
      let s = r_str "interned string" in
      let id = Topo_util.Interner.intern interner s in
      if id <> i then fail "corrupt snapshot: interned string %S got id %d, expected %d" s id i
    done;
    (* 'G' class-key pool. *)
    expect 'G' "class-key pool";
    let n_pool = r_count "class-key pool size" in
    let pool = Array.make n_pool "" in
    for i = 0 to n_pool - 1 do
      pool.(i) <- r_str "class key"
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
    let n_tables = r_count "table count" in
    let tables =
      r_list n_tables "table" (fun () ->
          let name = r_str "table name" in
          let arity = r_count "table arity" in
          let cols =
            r_list arity "column" (fun () ->
                let cname = r_str "column name" in
                let ty =
                  match r_u8 "column type" with
                  | 0 -> Schema.TInt
                  | 1 -> Schema.TFloat
                  | 2 -> Schema.TStr
                  | k -> fail "corrupt snapshot: unknown column type tag %d in table %s" k name
                in
                { Schema.name = cname; ty })
          in
          let primary_key =
            match r_u8 "primary key flag" with
            | 0 -> None
            | 1 -> Some (r_str "primary key column")
            | k -> fail "corrupt snapshot: bad primary-key flag %d in table %s" k name
          in
          let schema = Schema.make cols in
          let n = r_int "row count" in
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
          let tag ci r = Char.code data.[tags.(ci) + r] in
          for ci = 0 to arity - 1 do
            need n "cell tags";
            tags.(ci) <- !pos;
            pos := !pos + n;
            at.(ci) <- !pos;
            for r = 0 to n - 1 do
              match tag ci r with
              | 0 when str_col.(ci) -> ()
              | 0 | 1 | 2 ->
                  need 8 "numeric cell";
                  pos := !pos + 8
              | 3 when str_col.(ci) ->
                  let len = r_count "string cell" in
                  need len "string cell";
                  pos := !pos + len
              | t ->
                  fail "corrupt snapshot: unexpected cell tag %d in %s.%s" t name
                    (List.nth cols ci).Schema.name
            done
          done;
          let tb = Table.create ~name ~schema ?primary_key () in
          for r = 0 to n - 1 do
            let row = Array.make arity Value.Null in
            for ci = 0 to arity - 1 do
              let p = at.(ci) in
              match tag ci r with
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
          Catalog.add catalog tb;
          tb)
    in
    (* 'X' index specs: declared, not built — the spec list is visible
       immediately (and survives into the next snapshot), while each
       payload fills on its first probe, so load builds no index a
       server never touches. *)
    expect 'X' "index specs";
    List.iter
      (fun tb ->
        let n_specs = r_count "index spec count" in
        for _ = 1 to n_specs do
          let kind =
            match r_u8 "index kind" with
            | 0 -> Index.Hash
            | 1 -> Index.Sorted
            | k -> fail "corrupt snapshot: unknown index kind %d on table %s" k (Table.name tb)
          in
          let n_cols = r_count "index column count" in
          let cols = r_list n_cols "index column" (fun () -> r_str "index column name") in
          Table.declare_index tb ~kind ~cols
        done)
      tables;
    (* 'S' statistics. *)
    expect 'S' "statistics";
    let n_stats = r_count "statistics count" in
    let stats_entries =
      r_list n_stats "statistics entry" (fun () ->
          let name = r_str "statistics table name" in
          let row_count = r_int "statistics row count" in
          let avg_width = r_f64 "statistics avg width" in
          let ncols = r_count "statistics column count" in
          let histograms = Array.make ncols (Histogram.build [||]) in
          let samples = Array.make ncols [||] in
          for ci = 0 to ncols - 1 do
            let total = r_int "histogram total" in
            let nulls = r_int "histogram null count" in
            let distinct = r_int "histogram distinct" in
            let n_buckets = r_count "histogram bucket count" in
            let buckets = Array.make n_buckets (Value.Null, Value.Null, 0, 0) in
            for i = 0 to n_buckets - 1 do
              let lo = r_value "bucket lo" in
              let hi = r_value "bucket hi" in
              let count = r_int "bucket count" in
              let d = r_int "bucket distinct" in
              buckets.(i) <- (lo, hi, count, d)
            done;
            let n_mcv = r_count "mcv count" in
            let mcv = Array.make n_mcv (Value.Null, 0) in
            for i = 0 to n_mcv - 1 do
              let v = r_value "mcv value" in
              let c = r_int "mcv frequency" in
              mcv.(i) <- (v, c)
            done;
            histograms.(ci) <- Histogram.restore ~total ~nulls ~distinct ~buckets ~mcv;
            let n_sample = r_count "sample size" in
            let sample = Array.make n_sample Value.Null in
            for i = 0 to n_sample - 1 do
              sample.(i) <- r_value "sample value"
            done;
            samples.(ci) <- sample
          done;
          (name, Table_stats.restore ~row_count ~histograms ~samples ~avg_width))
    in
    Catalog.restore_stats catalog stats_entries;
    (* 'T' topology registry: re-register in TID order, verify keys. *)
    expect 'T' "topology registry";
    let registry = Topology.create_registry () in
    let n_tops = r_count "topology count" in
    for tid = 1 to n_tops do
      let key = r_str "topology key" in
      let g = Topo_graph.Lgraph.empty () in
      let n_nodes = r_count "topology node count" in
      for _ = 1 to n_nodes do
        let id = r_int "node id" in
        let label = r_int "node label" in
        Topo_graph.Lgraph.add_node g ~id ~label
      done;
      let n_edges = r_count "topology edge count" in
      for _ = 1 to n_edges do
        let u = r_int "edge endpoint" in
        let v = r_int "edge endpoint" in
        let label = r_int "edge label" in
        Topo_graph.Lgraph.add_edge g ~u ~v ~label
      done;
      let n_decomps = r_count "decomposition count" in
      if n_decomps = 0 then fail "corrupt snapshot: topology %d has no decomposition" tid;
      let decompositions =
        r_list n_decomps "decomposition" (fun () ->
            let n_keys = r_count "decomposition key count" in
            r_list n_keys "decomposition key" (fun () -> pool_str (r_u32 "class-key pool index")))
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
    let l = r_count "l" in
    let max_reps_per_class = r_int "max_reps_per_class" in
    let max_combos_per_pair = r_int "max_combos_per_pair" in
    let max_paths_per_class = r_int "max_paths_per_class" in
    let caps = { Compute.max_reps_per_class; max_combos_per_pair; max_paths_per_class } in
    let jobs = r_count "jobs" in
    let n_pairs = r_count "build stats count" in
    let build_stats =
      r_list n_pairs "build stats entry" (fun () ->
          let t1 = r_str "pair t1" in
          let t2 = r_str "pair t2" in
          let schema_paths = r_int "schema paths" in
          let instance_paths = r_int "instance paths" in
          let pairs = r_int "connected pairs" in
          let unions = r_int "unions" in
          let capped_pairs = r_int "capped pairs" in
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
    let n_stores = r_count "store count" in
    for _ = 1 to n_stores do
      let t1 = r_str "store t1" in
      let t2 = r_str "store t2" in
      let alltops, lefttops, excptops, topinfo = Store.table_names ~t1 ~t2 in
      List.iter
        (fun name ->
          if not (Catalog.mem catalog name) then
            fail "corrupt snapshot: store %s-%s references missing table %s" t1 t2 name)
        [ alltops; lefttops; excptops; topinfo ];
      let n_pruned = r_count "pruned count" in
      let pruned =
        r_list n_pruned "pruned topology" (fun () ->
            let tid = r_int "pruned TID" in
            match Topology.find registry tid with
            | t -> t
            | exception Not_found ->
                fail "corrupt snapshot: pruned TID %d of store %s-%s not in registry" tid t1 t2)
      in
      let n_freqs = r_count "frequency count" in
      let frequencies = Hashtbl.create (max 16 n_freqs) in
      for _ = 1 to n_freqs do
        let tid = r_int "frequency TID" in
        let freq = r_int "frequency" in
        Hashtbl.replace frequencies tid freq
      done;
      let n_rows = r_int "store row count" in
      if n_rows < 0 || n_rows > limit then
        fail "corrupt snapshot: implausible store row count %d for %s-%s" n_rows t1 t2;
      let rows =
        r_list n_rows "store row" (fun () ->
            let a = r_int "row a" in
            let b = r_int "row b" in
            let n_tids = r_count "row TID count" in
            let tids = r_list n_tids "row TID" (fun () -> r_int "TID") in
            let n_keys = r_count "row class-key count" in
            let class_keys =
              r_list n_keys "row class key" (fun () -> pool_str (r_u32 "class-key pool index"))
            in
            { Compute.a; b; tids; class_keys })
      in
      let store =
        { Store.t1; t2; alltops; lefttops; excptops; topinfo; pruned; frequencies; rows }
      in
      Hashtbl.replace ctx.Context.stores (t1, t2) store
    done;
    (* 'C' class pairs (flag bit 0): register schema paths for pairs whose
       sweeps contributed decompositions to this slice's shared registry. *)
    if flags land 1 <> 0 then begin
      expect 'C' "class pairs";
      let n = r_count "class pair count" in
      for _ = 1 to n do
        let t1 = r_str "class pair t1" in
        let t2 = r_str "class pair t2" in
        Context.register_class_paths ctx ~t1 ~t2
      done
    end;
    expect 'E' "end";
    if !pos <> limit then
      fail "corrupt snapshot: %d trailing byte(s) after the end marker" (limit - !pos);
    { Engine.ctx; build_stats; jobs }
  in
  let engine =
    try decode () with
    | Error _ as e -> raise e
    | e ->
        fail "corrupt snapshot %s: decode failed at offset %d: %s" path !pos
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
   shared with the parent — slicing copies nothing but the lists), and
   statistics already computed on the parent are carried over so the
   slice does not recompute them at save time. *)
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
  let kept_stats = ref [] in
  List.iter
    (fun tb ->
      let name = Table.name tb in
      if not (Hashtbl.mem dropped name) then begin
        Catalog.add catalog tb;
        kept_stats := (name, Catalog.stats ctx.Context.catalog name) :: !kept_stats
      end)
    (Catalog.tables ctx.Context.catalog);
  Catalog.restore_stats catalog (List.rev !kept_stats);
  let stores = Hashtbl.create (max 8 (List.length build_stats)) in
  List.iter
    (fun (t1, t2, _) ->
      match Hashtbl.find_opt ctx.Context.stores (t1, t2) with
      | Some s -> Hashtbl.replace stores (t1, t2) s
      | None -> fail "save_sharded: no store for built pair %s-%s" t1 t2)
    build_stats;
  let ctx = { ctx with Context.catalog; stores } in
  { engine with Engine.ctx = ctx; build_stats }

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
    (* Every slice carries the parent's full pair list: the shared
       registry's decompositions can reference any built pair's classes. *)
    let class_pairs = List.map (fun (t1, t2, _) -> (t1, t2)) engine.Engine.build_stats in
    total := !total + save ~class_pairs slice ~path:(shard_path ~dir k)
  done;
  let m = { shards; derivation = partition_derivation; pairs; fingerprints } in
  let text = render_manifest m in
  (match open_out_bin (manifest_path dir) with
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc text;
          output_char oc '\n')
  | exception Sys_error msg -> fail "save_sharded: cannot write manifest: %s" msg);
  (m, !total + String.length text + 1)

let load_manifest dir =
  let path = manifest_path dir in
  let text =
    match open_in_bin path with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
    | exception Sys_error msg -> fail "cannot open manifest: %s" msg
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
