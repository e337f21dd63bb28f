(* Rows [rowno 0 .. count () - 1] of the table, skipping those the
   compiled predicate rejects; [on_fetch] runs once per row read. *)
let filtered_rows ?pred table ~count ~rowno ~on_fetch =
  let keep = Option.map (Row_filter.compile table) pred in
  let pos = ref 0 in
  let n = ref 0 in
  let rec next () =
    if !pos >= !n then None
    else begin
      let r = rowno !pos in
      let tuple = Table.get table r in
      incr pos;
      on_fetch ();
      match keep with Some f when not (f r tuple) -> next () | Some _ | None -> Some tuple
    end
  in
  Iterator.ungrouped ~schema:(Table.schema table)
    ~open_:(fun () ->
      pos := 0;
      n := count ())
    ~next
    ~close:(fun () -> ())

let seq ?pred table =
  filtered_rows ?pred table
    ~count:(fun () -> Table.row_count table)
    ~rowno:Fun.id
    ~on_fetch:(fun () -> Iterator.Counters.add_scanned 1)

let rows_iterator ?pred table rownos =
  filtered_rows ?pred table
    ~count:(fun () -> Array.length rownos)
    ~rowno:(Array.get rownos) ~on_fetch:ignore

let index_probe ?pred table ~cols ~key =
  let idx = Table.ensure_index table ~kind:Index.Hash ~cols in
  Iterator.Counters.add_probes 1;
  let rownos = Array.of_list (Index.probe idx key) in
  rows_iterator ?pred table rownos

let ordered_rownos ?(desc = false) table ~cols =
  Index.ordered_rows ~desc (Table.ensure_index table ~kind:Index.Sorted ~cols)

let ordered ?pred ?desc table ~cols = rows_iterator ?pred table (ordered_rownos ?desc table ~cols)

let grouped_by_tuple (it : Iterator.t) =
  let group = ref (-1) in
  {
    Iterator.schema = it.Iterator.schema;
    open_ =
      (fun () ->
        group := -1;
        it.Iterator.open_ ());
    next =
      (fun () ->
        match it.Iterator.next () with
        | Some tuple ->
            incr group;
            Some tuple
        | None -> None);
    close = it.Iterator.close;
    advance_group = (fun () -> ());
    last_group = (fun () -> !group);
  }
