type t = { ids : (string, int) Hashtbl.t; names : string Dyn.t; write_lock : Mutex.t }

let create () = { ids = Hashtbl.create 64; names = Dyn.create (); write_lock = Mutex.create () }

(* Writes are serialized by [write_lock]; the fast path (already interned)
   is a lock-free read.  Lookups are not synchronized against a concurrent
   first-time intern, so parallel phases must pre-intern every string they
   will look up (see Data_graph.intern_path_labels) — after that the pool
   is effectively frozen and concurrent reads are safe. *)
let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> id
  | None ->
      Mutex.lock t.write_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.write_lock)
        (fun () ->
          match Hashtbl.find_opt t.ids s with
          | Some id -> id
          | None ->
              let id = Dyn.length t.names in
              Hashtbl.add t.ids s id;
              Dyn.push t.names s;
              id)

let name t id =
  if id < 0 || id >= Dyn.length t.names then invalid_arg (Printf.sprintf "Interner.name: unknown id %d" id);
  Dyn.get t.names id

let count t = Dyn.length t.names

let iter f t = Dyn.iteri f t.names
