type t = {
  schema : Schema.t;
  open_ : unit -> unit;
  next : unit -> Tuple.t option;
  close : unit -> unit;
  advance_group : unit -> unit;
  last_group : unit -> int;
}

module Counters = struct
  (* Counter cells are resolved through a domain-local scope: by default
     every domain shares one global cell set that nobody reads, and
     [with_scope] installs a private one — every query runs under its
     own, so concurrent queries never see each other's work.  Increments
     within a cell set are [Atomic]. *)
  type cells = { tuples_c : int Atomic.t; probes_c : int Atomic.t; scanned_c : int Atomic.t }

  let make_cells () = { tuples_c = Atomic.make 0; probes_c = Atomic.make 0; scanned_c = Atomic.make 0 }

  let global_cells = make_cells ()

  let scope : cells Domain.DLS.key = Domain.DLS.new_key (fun () -> global_cells)

  let cells () = Domain.DLS.get scope

  let add_tuples n = ignore (Atomic.fetch_and_add (cells ()).tuples_c n)

  let add_probes n = ignore (Atomic.fetch_and_add (cells ()).probes_c n)

  let add_scanned n = ignore (Atomic.fetch_and_add (cells ()).scanned_c n)

  type snapshot = { tuples : int; index_probes : int; rows_scanned : int }

  let current () =
    let c = cells () in
    {
      tuples = Atomic.get c.tuples_c;
      index_probes = Atomic.get c.probes_c;
      rows_scanned = Atomic.get c.scanned_c;
    }

  (* Isolated scope: install a fresh cell set on the current domain for the
     duration of [f], returning [f]'s result and the work it performed.
     Nothing leaks either way — the surrounding scope's counts are
     untouched by [f]'s work, and [f] starts from zero.  The previous
     scope is restored even when [f] raises, but the snapshot is only
     produced on normal return. *)
  let with_scope f =
    let prev = Domain.DLS.get scope in
    Domain.DLS.set scope (make_cells ());
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set scope prev)
      (fun () ->
        let result = f () in
        (result, current ()))
end

let ungrouped ~schema ~open_ ~next ~close =
  {
    schema;
    open_;
    next =
      (fun () ->
        match next () with
        | Some tuple ->
            Counters.add_tuples 1;
            Some tuple
        | None -> None);
    close;
    advance_group = (fun () -> ());
    last_group = (fun () -> 0);
  }

let of_tuples schema tuples =
  let pos = ref 0 in
  ungrouped ~schema
    ~open_:(fun () -> pos := 0)
    ~next:(fun () ->
      if !pos >= Array.length tuples then None
      else begin
        let tuple = tuples.(!pos) in
        incr pos;
        Some tuple
      end)
    ~close:(fun () -> ())

let iter f it =
  it.open_ ();
  let rec loop () =
    match it.next () with
    | Some tuple ->
        f tuple (it.last_group ());
        loop ()
    | None -> ()
  in
  Fun.protect ~finally:it.close loop

let to_list it =
  let acc = ref [] in
  iter (fun tuple _ -> acc := tuple :: !acc) it;
  List.rev !acc

let count it =
  let n = ref 0 in
  iter (fun _ _ -> incr n) it;
  !n
