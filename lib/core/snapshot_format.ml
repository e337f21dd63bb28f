(* The snapshot file's byte layout, one [Wire.codec] per part (see the
   interface for the order).  The catalog section is one hand-written
   codec value, its encoder and decoder side by side: its cells are
   column-major and its decoder makes two passes, which no combinator
   expresses as cheaply. *)

open Topo_sql

type header = {
  version : int;
  flags : int;
  payload_length : int;
  fingerprint : string;
  checksum : string;
}

let header =
  Wire.(
    record (fun () version flags payload_length fingerprint checksum ->
        { version; flags; payload_length; fingerprint; checksum })
    |+ (literal "magic" "TOPOSNAP", fun _ -> ())
    |+ (u32 "version", fun h -> h.version)
    |+ (u32 "flags", fun h -> h.flags)
    |+ (i64 "payload length", fun h -> h.payload_length)
    |+ (str "fingerprint", fun h -> h.fingerprint)
    |+ (str "payload checksum", fun h -> h.checksum)
    |> seal)

let section marker what c =
  Wire.(
    record (fun () v -> v) |+ (literal (what ^ " section marker") marker, fun _ -> ()) |+ (c, Fun.id) |> seal)

let end_marker = Wire.literal "end section marker" "E"

let interned = section "I" "intern pool" Wire.(list "interned string count" (str "interned string"))

let class_keys = section "G" "class-key pool" Wire.(list "class-key pool size" (str "class key"))

(* ------------------------------------------------------------------ *)
(* 'C' catalog: every table's name, schema and primary key, then its
   cells column by column.  Each column is one tag byte per cell
   (null/int/float/string), then — for a column declared numeric — a
   fixed-width 8-byte slot per row (ints as-is, floats by bit pattern),
   or — for a string column — a length-prefixed string per string cell
   and the 8-byte value of an int or float cell. *)

(* The catalog's own checks (a repeated column, table or primary key, an
   unknown key column) raise [Invalid_argument]; the codec reports them
   as the corrupt input they are. *)
let checked f x = try f x with Invalid_argument msg -> Wire.fail "corrupt snapshot: %s" msg

let cell_tag = function Value.Null -> 0 | Value.Int _ -> 1 | Value.Float _ -> 2 | Value.Str _ -> 3

let column =
  Wire.(
    record (fun name ty -> { Schema.name; ty })
    |+ (str "column name", fun (c : Schema.column) -> c.Schema.name)
    |+ (enum "column type" Schema.[ TInt; TFloat; TStr ], fun c -> c.Schema.ty)
    |> seal)

let table =
  let name = Wire.str "table name"
  and columns = Wire.list "table arity" column
  and primary_key = Wire.option "primary key flag" (Wire.str "primary key column")
  and row_count = Wire.i64 "row count"
  and u8 = Wire.u8 "cell tag"
  and i64 = Wire.i64 "cell"
  and f64 = Wire.f64 "cell"
  and str = Wire.str "cell" in
  let write buf tb =
    let cols = Schema.columns (Table.schema tb) and rows = Table.rows tb in
    name.write buf (Table.name tb);
    columns.write buf (Array.to_list cols);
    primary_key.write buf (Table.primary_key tb);
    row_count.write buf (Array.length rows);
    Array.iteri
      (fun ci (c : Schema.column) ->
        Array.iter (fun row -> u8.write buf (cell_tag (Tuple.get row ci))) rows;
        let numeric = c.Schema.ty <> Schema.TStr in
        Array.iter
          (fun row ->
            match Tuple.get row ci with
            | Value.Null -> if numeric then i64.write buf 0
            | Value.Int x -> i64.write buf x
            | Value.Float f -> f64.write buf f
            | Value.Str s when not numeric -> str.write buf s
            | Value.Str s ->
                Wire.fail "save: string value %S in numeric column %s.%s" s (Table.name tb) c.Schema.name)
          rows)
      cols
  in
  let read r =
    let data = Wire.source r in
    let name = name.read r in
    let cols = columns.read r in
    let primary_key = primary_key.read r in
    let n = row_count.read r in
    if n < 0 || n > String.length data then
      Wire.fail "corrupt snapshot: implausible row count %d for table %s" n name;
    let str_col = Array.of_list (List.map (fun (c : Schema.column) -> c.Schema.ty = Schema.TStr) cols) in
    let arity = Array.length str_col in
    (* Columns are stored one after another but rows are inserted one at
       a time.  First find where each column's tags and payload start,
       checking every tag and length; then decode row by row, [at.(ci)]
       being the next payload byte of column [ci]. *)
    let tags = Array.make arity 0 and at = Array.make arity 0 in
    let tag ci i = Char.code data.[tags.(ci) + i] in
    for ci = 0 to arity - 1 do
      tags.(ci) <- Wire.r_skip r n "cell tags";
      at.(ci) <- Wire.offset r;
      for i = 0 to n - 1 do
        match tag ci i with
        | 0 when str_col.(ci) -> ()
        | 0 | 1 | 2 -> ignore (Wire.r_skip r 8 "numeric cell")
        | 3 when str_col.(ci) -> ignore (Wire.r_skip r (Wire.r_count r "string cell") "string cell")
        | t ->
            Wire.fail "corrupt snapshot: unexpected cell tag %d in %s.%s" t name
              (List.nth cols ci).Schema.name
      done
    done;
    let tb = Table.create ~name ~schema:(Schema.make cols) ?primary_key () in
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
      Table.insert tb row
    done;
    tb
  in
  { Wire.write; read = checked read }

let catalog =
  section "C" "catalog"
    (Wire.map
       (checked @@ fun tables ->
         let catalog = Catalog.create () in
         List.iter (Catalog.add catalog) tables;
         catalog)
       Catalog.tables
       (Wire.list "table count" table))

(* ------------------------------------------------------------------ *)
(* 'T', 'B', 'P' and the flagged class pairs                           *)

type topology = {
  key : string;
  nodes : (int * int) list;
  edges : Topo_graph.Lgraph.edge list;
  decompositions : int list list;
}

let topologies =
  let edge =
    Wire.(
      record (fun u v label -> { Topo_graph.Lgraph.u; v; label })
      |+ (i64 "edge endpoint", fun (e : Topo_graph.Lgraph.edge) -> e.u)
      |+ (i64 "edge endpoint", fun e -> e.v)
      |+ (i64 "edge label", fun e -> e.label)
      |> seal)
  in
  section "T" "topology registry"
    Wire.(
      list "topology count"
        (record (fun key nodes edges decompositions -> { key; nodes; edges; decompositions })
        |+ (str "topology key", fun t -> t.key)
        |+ (list "topology node count" (pair (i64 "node id") (i64 "node label")), fun t -> t.nodes)
        |+ (list "topology edge count" edge, fun t -> t.edges)
        |+ ( list "decomposition count" (list "decomposition key count" (u32 "class-key pool index")),
             fun t -> t.decompositions )
        |> seal))

let build =
  let caps =
    Wire.(
      record (fun max_reps_per_class max_combos_per_pair max_paths_per_class ->
          { Compute.max_reps_per_class; max_combos_per_pair; max_paths_per_class })
      |+ (i64 "max_reps_per_class", fun (c : Compute.caps) -> c.max_reps_per_class)
      |+ (i64 "max_combos_per_pair", fun c -> c.max_combos_per_pair)
      |+ (i64 "max_paths_per_class", fun c -> c.max_paths_per_class)
      |> seal)
  and stats =
    Wire.(
      record (fun schema_paths instance_paths pairs unions capped_pairs ->
          { Compute.schema_paths; instance_paths; pairs; unions; capped_pairs })
      |+ (i64 "schema paths", fun (s : Compute.stats) -> s.schema_paths)
      |+ (i64 "instance paths", fun s -> s.instance_paths)
      |+ (i64 "connected pairs", fun s -> s.pairs)
      |+ (i64 "unions", fun s -> s.unions)
      |+ (i64 "capped pairs", fun s -> s.capped_pairs)
      |> seal)
  in
  section "B" "build config"
    Wire.(triple (u32 "l") caps (list "build stats count" (triple (str "pair t1") (str "pair t2") stats)))

let stores =
  section "P" "stores"
    Wire.(list "store count" (triple (str "store t1") (str "store t2") (list "pruned count" (i64 "pruned TID"))))

let class_pairs =
  section "C" "class pairs" Wire.(list "class pair count" (pair (str "class pair t1") (str "class pair t2")))
