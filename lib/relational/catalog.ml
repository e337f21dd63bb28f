type t = {
  tables : (string, Table.t) Hashtbl.t;
  mutable order : string list;  (* reverse registration order *)
  stats_cache : (string, int * Table_stats.t) Hashtbl.t;  (* row count at compute time *)
  stats_lock : Mutex.t;  (* the stats cache fills lazily, possibly off-coordinator *)
}

let create () =
  {
    tables = Hashtbl.create 32;
    order = [];
    stats_cache = Hashtbl.create 32;
    stats_lock = Mutex.create ();
  }

let add t table =
  let n = Table.name table in
  if Hashtbl.mem t.tables n then invalid_arg ("Catalog.add: duplicate table " ^ n);
  Hashtbl.add t.tables n table;
  t.order <- n :: t.order

let create_table t ~name ~schema ?primary_key () =
  let table = Table.create ~name ~schema ?primary_key () in
  add t table;
  table

let find t name =
  match Hashtbl.find_opt t.tables name with
  | Some table -> table
  | None -> raise Not_found

let find_opt t name = Hashtbl.find_opt t.tables name

let mem t name = Hashtbl.mem t.tables name

let remove t name =
  if Hashtbl.mem t.tables name then begin
    Hashtbl.remove t.tables name;
    Mutex.lock t.stats_lock;
    Hashtbl.remove t.stats_cache name;
    Mutex.unlock t.stats_lock;
    t.order <- List.filter (fun n -> n <> name) t.order
  end

let tables t = List.rev_map (fun n -> Hashtbl.find t.tables n) t.order

(* Coarse lock: lookup, compute and fill happen inside it, so concurrent
   callers never race the cache table (the recompute is idempotent and
   tables are frozen while stats are consulted). *)
let stats t name =
  let table = find t name in
  let current = Table.row_count table in
  Mutex.lock t.stats_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.stats_lock)
    (fun () ->
      match Hashtbl.find_opt t.stats_cache name with
      | Some (count, st) when count = current -> st
      | Some _ | None ->
          let st = Table_stats.compute table in
          Hashtbl.replace t.stats_cache name (current, st);
          st)
