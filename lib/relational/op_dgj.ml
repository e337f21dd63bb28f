let idgj ~outer ~table ~table_cols ~outer_cols ?pred ?residual () =
  let schema = Schema.concat outer.Iterator.schema (Table.schema table) in
  let keep = Option.map (Row_filter.compile table) pred in
  let idx = ref None in
  (* Lazy probe state: matches of the current outer tuple are pulled one at
     a time, so advance_group abandons the untouched tail of a large bucket
     without ever materializing it. *)
  let current_outer = ref None in
  let bucket_n = ref 0 in
  let bucket_get = ref (fun (_ : int) -> 0) in
  let bucket_pos = ref 0 in
  let group = ref (-1) in
  let get_index () =
    match !idx with
    | Some i -> i
    | None ->
        let i = Table.ensure_index table ~kind:Index.Hash ~cols:table_cols in
        idx := Some i;
        i
  in
  let rec next () =
    match !current_outer with
    | Some out_tuple when !bucket_pos < !bucket_n ->
        let rowno = !bucket_get !bucket_pos in
        incr bucket_pos;
        let inner = Table.get table rowno in
        (match keep with
        | Some f when not (f rowno inner) -> next ()
        | Some _ | None -> (
            let joined = Tuple.concat out_tuple inner in
            match residual with
            | Some r when not (Expr.truthy r joined) -> next ()
            | Some _ | None ->
                Iterator.Counters.add_tuples 1;
                Some joined))
    | Some _ | None -> (
        match outer.Iterator.next () with
        | None ->
            current_outer := None;
            None
        | Some out_tuple ->
            group := outer.Iterator.last_group ();
            Iterator.Counters.add_probes 1;
            let n, get = Index.probe_bucket (get_index ()) (Tuple.key out_tuple outer_cols) in
            current_outer := Some out_tuple;
            bucket_n := n;
            bucket_get := get;
            bucket_pos := 0;
            next ())
  in
  {
    Iterator.schema;
    open_ =
      (fun () ->
        current_outer := None;
        bucket_n := 0;
        bucket_pos := 0;
        group := -1;
        outer.Iterator.open_ ());
    next;
    close = outer.Iterator.close;
    advance_group =
      (fun () ->
        (* Property (b): discontinue the current loop and skip the rest of
           the group in the outer input. *)
        current_outer := None;
        bucket_n := 0;
        bucket_pos := 0;
        outer.Iterator.advance_group ());
    last_group = (fun () -> !group);
  }

let hdgj ~outer ~table ~table_cols ~outer_cols ?pred ?residual () =
  let schema = Schema.concat outer.Iterator.schema (Table.schema table) in
  let key_cols = Array.of_list (List.map (Schema.index_of (Table.schema table)) table_cols) in
  let keep = Option.map (Row_filter.compile table) pred in
  (* One-tuple lookahead on the outer so a whole group can be collected. *)
  let lookahead : (Tuple.t * int) option ref = ref None in
  let exhausted = ref false in
  let group = ref (-1) in
  let inner_pos = ref 0 in
  let inner_count = ref 0 in
  let pending = ref [] in
  let group_hash : (Value.t array, Tuple.t list) Hashtbl.t = Hashtbl.create 64 in
  let in_group = ref false in
  let fetch_outer () =
    match !lookahead with
    | Some (tuple, g) ->
        lookahead := None;
        Some (tuple, g)
    | None ->
        if !exhausted then None
        else (
          match outer.Iterator.next () with
          | Some tuple -> Some (tuple, outer.Iterator.last_group ())
          | None ->
              exhausted := true;
              None)
  in
  let start_group () =
    (* Collect every outer tuple of the next group into the hash table. *)
    Hashtbl.reset group_hash;
    match fetch_outer () with
    | None -> false
    | Some (first, g) ->
        group := g;
        let add tuple =
          let key = Tuple.key tuple outer_cols in
          let existing = Option.value ~default:[] (Hashtbl.find_opt group_hash key) in
          Hashtbl.replace group_hash key (tuple :: existing)
        in
        add first;
        let rec collect () =
          match fetch_outer () with
          | None -> ()
          | Some (tuple, g') ->
              if g' = g then begin
                add tuple;
                collect ()
              end
              else lookahead := Some (tuple, g')
        in
        collect ();
        inner_pos := 0;
        inner_count := Table.row_count table;
        in_group := true;
        true
  in
  let rec next () =
    match !pending with
    | tuple :: rest ->
        pending := rest;
        Iterator.Counters.add_tuples 1;
        Some tuple
    | [] ->
        if not !in_group then if start_group () then next () else None
        else if !inner_pos >= !inner_count then begin
          in_group := false;
          next ()
        end
        else begin
          (* Re-scan of the inner relation for this group. *)
          let rowno = !inner_pos in
          let inner = Table.get table rowno in
          incr inner_pos;
          Iterator.Counters.add_scanned 1;
          match keep with
          | Some f when not (f rowno inner) -> next ()
          | Some _ | None -> (
              match Hashtbl.find_opt group_hash (Tuple.key inner key_cols) with
              | None -> next ()
              | Some outers ->
                  let joined =
                    List.filter_map
                      (fun out_tuple ->
                        let j = Tuple.concat out_tuple inner in
                        match residual with
                        | Some r when not (Expr.truthy r j) -> None
                        | Some _ | None -> Some j)
                      (List.rev outers)
                  in
                  pending := joined;
                  next ())
        end
  in
  {
    Iterator.schema;
    open_ =
      (fun () ->
        lookahead := None;
        exhausted := false;
        group := -1;
        pending := [];
        in_group := false;
        Hashtbl.reset group_hash;
        outer.Iterator.open_ ());
    next;
    close = outer.Iterator.close;
    advance_group =
      (fun () ->
        pending := [];
        if !in_group then in_group := false
        else outer.Iterator.advance_group ());
    last_group = (fun () -> !group);
  }

let first_match_per_group (it : Iterator.t) ~k =
  it.Iterator.open_ ();
  let results = ref [] in
  let found = ref 0 in
  let rec loop () =
    if !found >= k then ()
    else
      match it.Iterator.next () with
      | None -> ()
      | Some tuple ->
          let g = it.Iterator.last_group () in
          results := (g, tuple) :: !results;
          incr found;
          (* One witness suffices to infer the topology exists: skip the
             rest of the group. *)
          it.Iterator.advance_group ();
          loop ()
  in
  Fun.protect ~finally:it.Iterator.close loop;
  List.rev !results
