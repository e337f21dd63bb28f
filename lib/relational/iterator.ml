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
     a domain has no cell set and increments are dropped, and [with_scope]
     installs a private one — every query runs under its own, so
     concurrent queries never see each other's work.  A cell set is only
     ever touched by the domain whose scope holds it, so its cells are
     plain ints. *)
  type cells = { mutable tuples_c : int; mutable probes_c : int; mutable scanned_c : int }

  let make_cells () = { tuples_c = 0; probes_c = 0; scanned_c = 0 }

  (* The unscoped sentinel: compared by identity, never written. *)
  let unscoped = make_cells ()

  let scope : cells Domain.DLS.key = Domain.DLS.new_key (fun () -> unscoped)

  let add_tuples n =
    let c = Domain.DLS.get scope in
    if c != unscoped then c.tuples_c <- c.tuples_c + n

  let add_probes n =
    let c = Domain.DLS.get scope in
    if c != unscoped then c.probes_c <- c.probes_c + n

  let add_scanned n =
    let c = Domain.DLS.get scope in
    if c != unscoped then c.scanned_c <- c.scanned_c + n

  let add_work ~tuples ~probes ~scanned =
    let c = Domain.DLS.get scope in
    if c != unscoped then begin
      c.tuples_c <- c.tuples_c + tuples;
      c.probes_c <- c.probes_c + probes;
      c.scanned_c <- c.scanned_c + scanned
    end

  type snapshot = { tuples : int; index_probes : int; rows_scanned : int }

  let current () =
    let c = Domain.DLS.get scope in
    { tuples = c.tuples_c; index_probes = c.probes_c; rows_scanned = c.scanned_c }

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
