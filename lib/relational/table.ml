module Dyn = Topo_util.Dyn

(* Freshness and entries travel together in one immutable record behind an
   [Atomic.t], so a reader can never pair a new row count with a stale
   entry list (or vice versa) the way two separate fields would allow. *)
type index_cache = {
  upto : int;  (* row count when [entries] were built *)
  entries : ((Index.kind * string list) * Index.t) list;
}

(* What the int kernels read of one column, derived lazily from the rows:
   [Not_int] once some cell is not [Value.Int], else the cells as a flat
   int array, plus the int-keyed hash index over it once asked for. *)
type int_col = Not_int | Lane of int array | Indexed of int array * Int_table.t

(* Per-column [int_col]s, keyed by column position.  Same freshness
   discipline as [index_cache]. *)
type col_cache = { c_upto : int; cols : (int * int_col) list }

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
  mutable data : Tuple.t array;
      (* rows [0, count) in insertion order; spare capacity holds [||] *)
  mutable count : int;
  pk_index : (Value.t, int) Hashtbl.t;
  index_cache : index_cache Atomic.t;
  col_cache : col_cache Atomic.t;
  postings : postings Atomic.t;
  mutable byte_size : int;
  snapshot : Tuple.t array option Atomic.t;  (* cache for [rows], dropped on insert *)
  cache_lock : Mutex.t;
      (* serializes the lazy snapshot/index/int-lane fills, which happen on
         read — possibly from several serving domains at once.  The cached
         state itself is published through [Atomic.set] so the unlocked
         fast paths get release/acquire ordering: a domain that sees the
         new value sees everything built before it.  Mutation proper
         (insert) stays a coordinator-only affair: tables are frozen
         while concurrent queries run. *)
}

let empty_indexes = { upto = 0; entries = [] }

let empty_cols = { c_upto = 0; cols = [] }

let empty_postings = { p_upto = 0; by_col = [] }

let create ~name ~schema ?primary_key () =
  let pk_col =
    match primary_key with
    | None -> None
    | Some col -> (
        match Schema.index_opt schema col with
        | Some i -> Some i
        | None -> invalid_arg (Printf.sprintf "Table.create: unknown primary key %s.%s" name col))
  in
  {
    name;
    schema;
    pk_col;
    data = [||];
    count = 0;
    pk_index = Hashtbl.create 1024;
    index_cache = Atomic.make empty_indexes;
    col_cache = Atomic.make empty_cols;
    postings = Atomic.make empty_postings;
    byte_size = 0;
    snapshot = Atomic.make None;
    cache_lock = Mutex.create ();
  }

let name t = t.name

let schema t = t.schema

let row_count t = t.count

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
              let a = Array.sub t.data 0 t.count in
              Atomic.set t.snapshot (Some a);
              a)

let get t rowno =
  if rowno < 0 || rowno >= t.count then
    invalid_arg (Printf.sprintf "Table.get(%s): row %d of %d" t.name rowno t.count);
  Array.unsafe_get t.data rowno

let iter f t =
  for rowno = 0 to t.count - 1 do
    f rowno t.data.(rowno)
  done

let insert t tuple =
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
      Hashtbl.add t.pk_index key t.count);
  if t.count = Array.length t.data then begin
    let data = Array.make (max 8 (2 * t.count)) [||] in
    Array.blit t.data 0 data 0 t.count;
    t.data <- data
  end;
  t.data.(t.count) <- tuple;
  t.count <- t.count + 1;
  if Option.is_some (Atomic.get t.snapshot) then Atomic.set t.snapshot None;
  t.byte_size <- t.byte_size + Tuple.width tuple

let insert_values t values = insert t (Array.of_list values)

let primary_key t =
  Option.map (fun i -> (Schema.column t.schema i).Schema.name) t.pk_col

let find_by_pk t key =
  match t.pk_col with
  | None -> invalid_arg (Printf.sprintf "Table.find_by_pk(%s): no primary key" t.name)
  | Some _ -> Option.map (get t) (Hashtbl.find_opt t.pk_index key)

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
         restart from an empty entry list rather than mixing generations. *)
      let entries = if cache.upto = len then cache.entries else [] in
      match List.assoc_opt key entries with
      | Some idx -> idx
      | None ->
          let positions = Array.of_list (List.map (Schema.index_of t.schema) cols) in
          let idx = Index.build ~kind ~cols:positions data in
          Atomic.set t.index_cache { upto = len; entries = (key, idx) :: entries };
          idx)

(* --- int lanes ------------------------------------------------------------ *)

let int_cells data ci =
  let exception Not_int_cell in
  let cell row = match row.(ci) with Value.Int x -> x | _ -> raise_notrace Not_int_cell in
  match Array.map cell data with lane -> Lane lane | exception Not_int_cell -> Not_int

let fresh_col t ci =
  let cache = Atomic.get t.col_cache in
  if cache.c_upto = row_count t then List.assoc_opt ci cache.cols else None

(* The miss path of [int_lane] and [int_index], double-checked like
   [ensure_index]: derive column [ci]'s entry (with its index when [indexed])
   under the lock and publish it in a fresh generation. *)
let fill_col t ci ~indexed =
  (* [rows t] takes [cache_lock] itself; fill the snapshot before locking
     (the lock is not reentrant). *)
  let data = rows t in
  Mutex.lock t.cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.cache_lock)
    (fun () ->
      let len = row_count t in
      let cache = Atomic.get t.col_cache in
      let cols = if cache.c_upto = len then cache.cols else [] in
      let entry = match List.assoc_opt ci cols with Some e -> e | None -> int_cells data ci in
      let entry =
        match entry with
        | Lane lane when indexed ->
            let tbl = Int_table.create ~capacity:(max 16 len) () in
            Array.iteri (fun r key -> Int_table.add tbl key r) lane;
            Indexed (lane, tbl)
        | e -> e
      in
      Atomic.set t.col_cache { c_upto = len; cols = (ci, entry) :: List.remove_assoc ci cols };
      entry)

let int_lane t ci =
  let entry = match fresh_col t ci with Some e -> e | None -> fill_col t ci ~indexed:false in
  match entry with Not_int -> None | Lane lane | Indexed (lane, _) -> Some lane

let int_index t ci =
  match fresh_col t ci with
  | Some Not_int -> None
  | Some (Indexed (_, tbl)) -> Some tbl
  | Some (Lane _) | None -> (
      match fill_col t ci ~indexed:true with Indexed (_, tbl) -> Some tbl | Not_int | Lane _ -> None)

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
