module Key = struct
  type t = Value.t array

  let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

  let hash k = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 19 k
end

module KeyTbl = Hashtbl.Make (Key)

let drain_into_hash ?(hint = 1024) (it : Iterator.t) cols =
  (* [hint] is the build side's estimated cardinality (the planner passes
     table row counts through); a right-sized table skips the rehash
     cascade a fixed 1024 pays on large builds. *)
  let tbl = KeyTbl.create (max 16 hint) in
  Iterator.iter
    (fun tuple _ ->
      let key = Tuple.key tuple cols in
      match KeyTbl.find_opt tbl key with
      | Some bucket -> Topo_util.Dyn.push bucket tuple
      | None ->
          let bucket = Topo_util.Dyn.create () in
          Topo_util.Dyn.push bucket tuple;
          KeyTbl.add tbl key bucket)
    it;
  tbl

let hash_join ~left ~right ~left_cols ~right_cols ?residual ?build_hint () =
  let schema = Schema.concat left.Iterator.schema right.Iterator.schema in
  let table = ref (KeyTbl.create 0) in
  (* Cursor over the current outer tuple's bucket: matches are pulled one
     at a time straight off the Dyn, instead of materializing a reversed
     list per probe. *)
  let cur_outer = ref None in
  let bucket = ref None in
  let bucket_pos = ref 0 in
  let rec next () =
    match (!cur_outer, !bucket) with
    | Some outer, Some b when !bucket_pos < Topo_util.Dyn.length b ->
        let inner = Topo_util.Dyn.get b !bucket_pos in
        incr bucket_pos;
        let joined = Tuple.concat outer inner in
        (match residual with
        | Some p when not (Expr.truthy p joined) -> next ()
        | Some _ | None -> Some joined)
    | _ -> (
        cur_outer := None;
        bucket := None;
        match left.Iterator.next () with
        | None -> None
        | Some outer ->
            (match KeyTbl.find_opt !table (Tuple.key outer left_cols) with
            | None -> ()
            | Some b ->
                cur_outer := Some outer;
                bucket := Some b;
                bucket_pos := 0);
            next ())
  in
  Iterator.ungrouped ~schema
    ~open_:(fun () ->
      table := drain_into_hash ?hint:build_hint right right_cols;
      cur_outer := None;
      bucket := None;
      left.Iterator.open_ ())
    ~next
    ~close:(fun () -> left.Iterator.close ())

let index_nl_join ~left ~table ~table_cols ~left_cols ?pred ?residual () =
  let schema = Schema.concat left.Iterator.schema (Table.schema table) in
  let keep = Option.map (Row_filter.compile table) pred in
  let idx = ref None in
  (* Same cursor discipline as [hash_join]: walk the probed bucket lazily
     via [Index.probe_bucket] instead of filtering a materialized match
     list per outer row. *)
  let cur_outer = ref None in
  let bucket_n = ref 0 in
  let bucket_get = ref (fun (_ : int) -> 0) in
  let bucket_pos = ref 0 in
  let rec next () =
    match !cur_outer with
    | Some outer when !bucket_pos < !bucket_n ->
        let rowno = !bucket_get !bucket_pos in
        incr bucket_pos;
        let inner = Table.get table rowno in
        (match keep with
        | Some f when not (f rowno inner) -> next ()
        | Some _ | None -> (
            let joined = Tuple.concat outer inner in
            match residual with
            | Some r when not (Expr.truthy r joined) -> next ()
            | Some _ | None -> Some joined))
    | Some _ | None -> (
        cur_outer := None;
        match left.Iterator.next () with
        | None -> None
        | Some outer ->
            let index =
              match !idx with
              | Some i -> i
              | None ->
                  let i = Table.ensure_index table ~kind:Index.Hash ~cols:table_cols in
                  idx := Some i;
                  i
            in
            Iterator.Counters.add_probes 1;
            let n, get = Index.probe_bucket index (Tuple.key outer left_cols) in
            cur_outer := Some outer;
            bucket_n := n;
            bucket_get := get;
            bucket_pos := 0;
            next ())
  in
  Iterator.ungrouped ~schema
    ~open_:(fun () ->
      cur_outer := None;
      bucket_n := 0;
      bucket_pos := 0;
      left.Iterator.open_ ())
    ~next
    ~close:(fun () -> left.Iterator.close ())

let nl_join ~left ~right ?residual () =
  let schema = Schema.concat left.Iterator.schema right.Iterator.schema in
  let inner = ref [||] in
  let outer_tuple = ref None in
  let inner_pos = ref 0 in
  let rec next () =
    match !outer_tuple with
    | None -> (
        match left.Iterator.next () with
        | None -> None
        | Some t ->
            outer_tuple := Some t;
            inner_pos := 0;
            next ())
    | Some outer ->
        if !inner_pos >= Array.length !inner then begin
          outer_tuple := None;
          next ()
        end
        else begin
          let joined = Tuple.concat outer !inner.(!inner_pos) in
          incr inner_pos;
          match residual with
          | Some p when not (Expr.truthy p joined) -> next ()
          | Some _ | None -> Some joined
        end
  in
  Iterator.ungrouped ~schema
    ~open_:(fun () ->
      let _, tuples = Op_basic.materialize right in
      inner := tuples;
      outer_tuple := None;
      left.Iterator.open_ ())
    ~next
    ~close:(fun () -> left.Iterator.close ())

let membership_pass ~keep_matching ~left ~right ~left_cols ~right_cols () =
  let keys = ref (KeyTbl.create 0) in
  let rec next () =
    match left.Iterator.next () with
    | None -> None
    | Some tuple ->
        let key = Tuple.key tuple left_cols in
        let found = KeyTbl.mem !keys key in
        if found = keep_matching then Some tuple else next ()
  in
  Iterator.ungrouped ~schema:left.Iterator.schema
    ~open_:(fun () ->
      let tbl = KeyTbl.create 1024 in
      Iterator.iter (fun tuple _ -> KeyTbl.replace tbl (Tuple.key tuple right_cols) ()) right;
      keys := tbl;
      left.Iterator.open_ ())
    ~next
    ~close:(fun () -> left.Iterator.close ())

let anti_join ~left ~right ~left_cols ~right_cols () =
  membership_pass ~keep_matching:false ~left ~right ~left_cols ~right_cols ()

let semi_join ~left ~right ~left_cols ~right_cols () =
  membership_pass ~keep_matching:true ~left ~right ~left_cols ~right_cols ()

let merge_join ~left ~right ~left_cols ~right_cols ?residual () =
  let schema = Schema.concat left.Iterator.schema right.Iterator.schema in
  (* The right input is materialized (bounded by the inner relation size);
     the left streams.  For each left tuple we binary-search the right
     group and emit its matches. *)
  let right_rows = ref [||] in
  let pending = ref [] in
  let right_lo = ref 0 in
  let compare_keys (ltuple : Tuple.t) (rtuple : Tuple.t) =
    let rec loop i =
      if i >= Array.length left_cols then 0
      else
        let c = Value.compare ltuple.(left_cols.(i)) rtuple.(right_cols.(i)) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0
  in
  let rec next () =
    match !pending with
    | tuple :: rest ->
        pending := rest;
        Some tuple
    | [] -> (
        match left.Iterator.next () with
        | None -> None
        | Some outer ->
            (* Advance the right frontier past smaller keys (both inputs
               ascending). *)
            let n = Array.length !right_rows in
            while !right_lo < n && compare_keys outer !right_rows.(!right_lo) > 0 do
              incr right_lo
            done;
            let matches = ref [] in
            let i = ref !right_lo in
            while !i < n && compare_keys outer !right_rows.(!i) = 0 do
              let joined = Tuple.concat outer !right_rows.(!i) in
              (match residual with
              | Some p when not (Expr.truthy p joined) -> ()
              | Some _ | None -> matches := joined :: !matches);
              incr i
            done;
            pending := List.rev !matches;
            next ())
  in
  Iterator.ungrouped ~schema
    ~open_:(fun () ->
      let _, rows = Op_basic.materialize right in
      (* Defensive: sort the materialized inner on its key columns so the
         operator works even when the input order is unknown. *)
      Array.sort (fun a b -> Tuple.compare_at right_cols a b) rows;
      right_rows := rows;
      right_lo := 0;
      pending := [];
      left.Iterator.open_ ())
    ~next
    ~close:(fun () -> left.Iterator.close ())
