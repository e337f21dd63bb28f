module Dyn = Topo_util.Dyn

(* Freshness and entries travel together in one immutable record behind an
   [Atomic.t], so a reader can never pair a new row count with a stale
   entry list (or vice versa) the way two separate fields would allow. *)
type index_cache = {
  upto : int;  (* row count when [entries] were built *)
  entries : ((Index.kind * string list) * Index.t) list;
  specs : (Index.kind * string list) list;
      (* every index ever declared or built, oldest first; survives
         staleness resets so snapshots round-trip the spec list *)
}

(* Lazily built columnar views: per-column typed lanes and int-keyed hash
   indexes over [Ints] lanes, keyed by column position.  Same freshness
   discipline as [index_cache]. *)
type col_cache = {
  c_upto : int;
  lanes : (int * Column.lane) list;
  int_idx : (int * Int_table.t) list;
}

(* Keyword postings: per string column, every token (see
   [Expr.iter_tokens]) with the ascending rows whose [Str] cell contains
   it, sorted by token.  Derived on first lookup, never persisted; same
   freshness discipline as [index_cache]. *)
type postings = {
  p_upto : int;
  by_col : (int * (string * int array) array) list;
}

type t = {
  name : string;
  schema : Schema.t;
  pk_col : int option;
  rows : Tuple.t Dyn.t;
  backing : Column.t option;
      (* columnar payload the table was created from (snapshot load);
         authoritative until [demoted] *)
  mutable demoted : bool;
      (* an insert into a columnar-backed table first copies the backing
         into [rows] and flips this; coordinator-only, like insert itself *)
  pk_index : (Value.t, int) Hashtbl.t;
  pk_ready : bool Atomic.t;  (* false only for columnar tables until first pk probe *)
  index_cache : index_cache Atomic.t;
  col_cache : col_cache Atomic.t;
  postings : postings Atomic.t;
  mutable byte_size : int;
  snapshot : Tuple.t array option Atomic.t;  (* cache for [rows], dropped on insert *)
  cache_lock : Mutex.t;
      (* serializes the lazy snapshot/index/lane fills, which happen on
         read — possibly from several serving domains at once.  The cached
         state itself is published through [Atomic.set] so the unlocked
         fast paths get release/acquire ordering: a domain that sees the
         new value sees everything built before it.  Mutation proper
         (insert/truncate) stays a coordinator-only affair: tables are
         frozen while concurrent queries run. *)
}

let empty_indexes = { upto = 0; entries = []; specs = [] }

let empty_cols = { c_upto = 0; lanes = []; int_idx = [] }

let empty_postings = { p_upto = 0; by_col = [] }

let resolve_pk ~name ~schema primary_key =
  match primary_key with
  | None -> None
  | Some col -> (
      match Schema.index_opt schema col with
      | Some i -> Some i
      | None -> invalid_arg (Printf.sprintf "Table.create: unknown primary key %s.%s" name col))

let create ~name ~schema ?primary_key () =
  {
    name;
    schema;
    pk_col = resolve_pk ~name ~schema primary_key;
    rows = Dyn.create ();
    backing = None;
    demoted = false;
    pk_index = Hashtbl.create 1024;
    pk_ready = Atomic.make true;
    index_cache = Atomic.make empty_indexes;
    col_cache = Atomic.make empty_cols;
    postings = Atomic.make empty_postings;
    byte_size = 0;
    snapshot = Atomic.make None;
    cache_lock = Mutex.create ();
  }

let of_columns ~name ~schema ?primary_key columns =
  if Column.arity columns <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Table.of_columns(%s): %d lanes, schema arity %d" name
         (Column.arity columns) (Schema.arity schema));
  let pk_col = resolve_pk ~name ~schema primary_key in
  {
    name;
    schema;
    pk_col;
    rows = Dyn.create ();
    backing = Some columns;
    demoted = false;
    pk_index = Hashtbl.create (max 16 (Column.rows columns));
    pk_ready = Atomic.make (pk_col = None);
    index_cache = Atomic.make empty_indexes;
    col_cache = Atomic.make empty_cols;
    postings = Atomic.make empty_postings;
    byte_size = Column.byte_size columns;
    snapshot = Atomic.make None;
    cache_lock = Mutex.create ();
  }

let name t = t.name

let schema t = t.schema

(* The columnar view, when it is still authoritative.  [backing] is
   immutable and [demoted] only ever flips during coordinator-only
   mutation, so this read is as safe as the existing [byte_size] field. *)
let columnar t = match t.backing with Some c when not t.demoted -> Some c | _ -> None

let row_count t = match columnar t with Some c -> Column.rows c | None -> Dyn.length t.rows

(* Double-checked: the fast path is a single lock-free field read; a miss
   takes the lock, re-checks, and fills — so two serving domains hitting a
   cold cache build the snapshot once and both observe the same array. *)
let rows t =
  match Atomic.get t.snapshot with
  | Some a -> a
  | None ->
      Mutex.lock t.cache_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.cache_lock)
        (fun () ->
          match Atomic.get t.snapshot with
          | Some a -> a
          | None ->
              let a =
                match columnar t with Some c -> Column.to_rows c | None -> Dyn.to_array t.rows
              in
              Atomic.set t.snapshot (Some a);
              a)

let get t rowno = match columnar t with None -> Dyn.get t.rows rowno | Some _ -> (rows t).(rowno)

let iter f t =
  match columnar t with None -> Dyn.iteri f t.rows | Some _ -> Array.iteri f (rows t)

let iter_row_strings f t =
  match (columnar t, Atomic.get t.snapshot) with
  | Some c, None ->
      (* Zero-copy path: format straight from the lanes; nothing here is
         worth materializing the rows for. *)
      let buf = Buffer.create 64 in
      for r = 0 to Column.rows c - 1 do
        Buffer.clear buf;
        Column.add_row_string buf c r;
        f (Buffer.contents buf)
      done
  | _ -> iter (fun _ tuple -> f (Tuple.to_string tuple)) t

(* Fills the primary-key hash lazily for columnar-backed tables (row-built
   tables maintain it insert by insert).  Double-checked like [rows]. *)
let ensure_pk t =
  if not (Atomic.get t.pk_ready) then begin
    let data = rows t in
    (* [rows t] takes [cache_lock] itself; materialize before locking (the
       lock is not reentrant). *)
    Mutex.lock t.cache_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.cache_lock)
      (fun () ->
        if not (Atomic.get t.pk_ready) then begin
          (match t.pk_col with
          | None -> ()
          | Some i ->
              Array.iteri
                (fun rowno row ->
                  let key = row.(i) in
                  if Hashtbl.mem t.pk_index key then
                    invalid_arg
                      (Printf.sprintf "Table(%s): duplicate primary key %s" t.name
                         (Value.to_string key));
                  Hashtbl.add t.pk_index key rowno)
                data);
          Atomic.set t.pk_ready true
        end)
  end

(* Coordinator-only: copy the columnar backing into the row store so the
   table mutates like any other from here on. *)
let demote t =
  match columnar t with
  | None -> ()
  | Some _ ->
      let a = rows t in
      ensure_pk t;
      Array.iter (Dyn.push t.rows) a;
      t.demoted <- true

let insert t tuple =
  demote t;
  if Array.length tuple <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Table.insert(%s): arity %d, expected %d" t.name (Array.length tuple)
         (Schema.arity t.schema));
  (match t.pk_col with
  | None -> ()
  | Some i ->
      let key = tuple.(i) in
      if Hashtbl.mem t.pk_index key then
        invalid_arg (Printf.sprintf "Table.insert(%s): duplicate primary key %s" t.name (Value.to_string key));
      Hashtbl.add t.pk_index key (Dyn.length t.rows));
  Dyn.push t.rows tuple;
  Atomic.set t.snapshot None;
  t.byte_size <- t.byte_size + Tuple.width tuple

let insert_values t values = insert t (Array.of_list values)

let primary_key t =
  Option.map (fun i -> (Schema.column t.schema i).Schema.name) t.pk_col

let find_by_pk t key =
  match t.pk_col with
  | None -> invalid_arg (Printf.sprintf "Table.find_by_pk(%s): no primary key" t.name)
  | Some _ -> (
      ensure_pk t;
      match Hashtbl.find_opt t.pk_index key with
      | Some rowno -> Some (get t rowno)
      | None -> None)

let rec ensure_index t ~kind ~cols =
  let key = (kind, cols) in
  (* Double-checked: when the cache is warm and fresh this is one lock-free
     [Atomic.get] of an immutable record.  A miss — or a stale cache after
     appends — takes the lock, re-checks, and (re)builds once, so serving
     domains probing the same cold index race nothing. *)
  let cache = Atomic.get t.index_cache in
  if cache.upto = row_count t then
    match List.assoc_opt key cache.entries with
    | Some idx -> idx
    | None -> ensure_index_slow t ~kind ~cols ~key
  else ensure_index_slow t ~kind ~cols ~key

and ensure_index_slow t ~kind ~cols ~key =
  (* [rows t] takes [cache_lock] itself; fill the snapshot before locking
     (the lock is not reentrant). *)
  let data = rows t in
  Mutex.lock t.cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.cache_lock)
    (fun () ->
      let len = row_count t in
      let cache = Atomic.get t.index_cache in
      (* Rows appended since the last build make every cached index stale:
         restart from an empty entry list rather than mixing generations.
         The declared-spec list is about intent, not payloads — it survives. *)
      let cache = if cache.upto = len then cache else { cache with upto = len; entries = [] } in
      match List.assoc_opt key cache.entries with
      | Some idx -> idx
      | None ->
          let positions = Array.of_list (List.map (Schema.index_of t.schema) cols) in
          let idx = Index.build ~kind ~cols:positions data in
          let specs = if List.mem key cache.specs then cache.specs else cache.specs @ [ key ] in
          Atomic.set t.index_cache { upto = len; entries = (key, idx) :: cache.entries; specs };
          idx)

let declare_index t ~kind ~cols =
  List.iter
    (fun c ->
      if not (Schema.mem t.schema c) then
        invalid_arg (Printf.sprintf "Table.declare_index(%s): unknown column %s" t.name c))
    cols;
  let key = (kind, cols) in
  let cache = Atomic.get t.index_cache in
  if not (List.mem key cache.specs) then
    Atomic.set t.index_cache { cache with specs = cache.specs @ [ key ] }

let index_specs t = (Atomic.get t.index_cache).specs

(* --- columnar views ---------------------------------------------------- *)

(* Build (or fetch) cached entries under the same double-checked regime as
   [ensure_index].  For a columnar-backed table the lane is just the
   backing's; only the int indexes need the cache then. *)
let rec lane t ci =
  match columnar t with
  | Some c -> Some (Column.lane c ci)
  | None -> (
      let cache = Atomic.get t.col_cache in
      if cache.c_upto = row_count t then
        match List.assoc_opt ci cache.lanes with
        | Some l -> Some l
        | None -> Some (lane_slow t ci)
      else Some (lane_slow t ci))

and lane_slow t ci =
  let data = rows t in
  Mutex.lock t.cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.cache_lock)
    (fun () -> lane_locked t ci data)

and lane_locked t ci data =
  let len = row_count t in
  let cache = Atomic.get t.col_cache in
  let cache = if cache.c_upto = len then cache else { empty_cols with c_upto = len } in
  match List.assoc_opt ci cache.lanes with
  | Some l -> l
  | None ->
      let ty = (Schema.column t.schema ci).Schema.ty in
      let l = Column.of_values ty (Array.map (fun row -> row.(ci)) data) in
      Atomic.set t.col_cache { cache with c_upto = len; lanes = (ci, l) :: cache.lanes };
      l

let int_lane t ci = match lane t ci with Some l -> Column.ints l | None -> None

let int_index t ci =
  let build_from ints_lane =
    let n = Bigarray.Array1.dim ints_lane in
    let tbl = Int_table.create ~capacity:(max 16 n) () in
    for r = 0 to n - 1 do
      Int_table.add tbl (Bigarray.Array1.get ints_lane r) r
    done;
    tbl
  in
  let fresh_hit () =
    let cache = Atomic.get t.col_cache in
    if cache.c_upto = row_count t then List.assoc_opt ci cache.int_idx else None
  in
  match fresh_hit () with
  | Some tbl -> Some tbl
  | None -> (
      match int_lane t ci with
      | None -> None
      | Some _ ->
          let data = rows t in
          Mutex.lock t.cache_lock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock t.cache_lock)
            (fun () ->
              let len = row_count t in
              let cache = Atomic.get t.col_cache in
              let cache = if cache.c_upto = len then cache else { empty_cols with c_upto = len } in
              match List.assoc_opt ci cache.int_idx with
              | Some tbl -> Some tbl
              | None ->
                  (* The lane lookup above may predate a concurrent cache
                     reset; re-resolve under the lock so lane and index
                     agree on the same generation. *)
                  let l =
                    match columnar t with
                    | Some c -> Column.lane c ci
                    | None -> lane_locked t ci data
                  in
                  (match Column.ints l with
                  | None -> None
                  | Some il ->
                      let tbl = build_from il in
                      Atomic.set t.col_cache
                        { cache with c_upto = len; int_idx = (ci, tbl) :: cache.int_idx };
                      Some tbl)))

(* --- keyword postings ---------------------------------------------------- *)

(* One pass over the column: a row joins a token's list once, however
   often the token recurs in its text ([Dyn.last] is that row then). *)
let build_postings data ci =
  let acc = Hashtbl.create 64 in
  Array.iteri
    (fun r row ->
      match row.(ci) with
      | Value.Str s ->
          Expr.iter_tokens
            (fun tok ->
              match Hashtbl.find_opt acc tok with
              | Some rows -> if Dyn.last rows <> r then Dyn.push rows r
              | None -> Hashtbl.add acc tok (Dyn.of_list [ r ]))
            s
      | Value.Null | Value.Int _ | Value.Float _ -> ())
    data;
  let tokens = Array.of_seq (Seq.map (fun (tok, rows) -> (tok, Dyn.to_array rows)) (Hashtbl.to_seq acc)) in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) tokens;
  tokens

let rec column_postings t ci =
  let cache = Atomic.get t.postings in
  match if cache.p_upto = row_count t then List.assoc_opt ci cache.by_col else None with
  | Some p -> p
  | None -> column_postings_slow t ci

and column_postings_slow t ci =
  let data = rows t in
  Mutex.lock t.cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.cache_lock)
    (fun () ->
      let len = row_count t in
      let cache = Atomic.get t.postings in
      let cache = if cache.p_upto = len then cache else { p_upto = len; by_col = [] } in
      match List.assoc_opt ci cache.by_col with
      | Some p -> p
      | None ->
          let p = build_postings data ci in
          Atomic.set t.postings { p_upto = len; by_col = (ci, p) :: cache.by_col };
          p)

let keyword_rows t ci keyword =
  if ci < 0 || ci >= Schema.arity t.schema then
    invalid_arg (Printf.sprintf "Table.keyword_rows(%s): column %d" t.name ci);
  if not (Expr.single_word keyword) then
    invalid_arg (Printf.sprintf "Table.keyword_rows(%s): %S is not a single word" t.name keyword);
  let tokens = column_postings t ci and token = String.lowercase_ascii keyword in
  let rec search lo hi =
    if lo >= hi then [||]
    else
      let mid = (lo + hi) / 2 in
      let tok, rows = tokens.(mid) in
      let c = String.compare token tok in
      if c = 0 then rows else if c < 0 then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length tokens)

let byte_size t = t.byte_size

let truncate t =
  (* No need to demote first: flipping [demoted] retires the backing, and
     the empty row store is authoritative from here on. *)
  t.demoted <- true;
  Dyn.clear t.rows;
  Hashtbl.reset t.pk_index;
  Atomic.set t.pk_ready true;
  Atomic.set t.index_cache empty_indexes;
  Atomic.set t.col_cache empty_cols;
  Atomic.set t.postings empty_postings;
  t.byte_size <- 0;
  Atomic.set t.snapshot None
