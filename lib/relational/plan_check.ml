type side = Left | Right

type kind =
  | Unknown_table of string
  | Unknown_index_column of { table : string; column : string }
  | Column_out_of_bounds of { what : string; pos : int; arity : int }
  | Key_arity_mismatch of { left : int; right : int }
  | Empty_join_key
  | Probe_key_arity_mismatch of { cols : int; key : int }
  | Not_sorted of { side : side; cols : int array }
  | Not_grouped
  | Type_mismatch of { context : string; detail : string }
  | Union_arity_mismatch of { left : int; right : int }
  | Negative_limit of int
  | Duplicate_columns of string
  | Kernel_disagreement of { checker : string option; lowering : string option }

type violation = { path : string list; node : string; kind : kind }

exception Plan_error of violation list

type props = { ordering : (int * bool) list; grouped : bool }

let bottom = { ordering = []; grouped = false }

let node_name : Physical.t -> string = function
  | Physical.Scan _ -> "Scan"
  | Physical.OrderedScan _ -> "OrderedScan"
  | Physical.IndexProbe _ -> "IndexProbe"
  | Physical.Filter _ -> "Filter"
  | Physical.Project _ -> "Project"
  | Physical.HashJoin _ -> "HashJoin"
  | Physical.MergeJoin _ -> "MergeJoin"
  | Physical.NLJoin _ -> "NLJoin"
  | Physical.IndexNL _ -> "IndexNL"
  | Physical.Idgj _ -> "IDGJ"
  | Physical.Hdgj _ -> "HDGJ"
  | Physical.Sort _ -> "Sort"
  | Physical.Distinct _ -> "Distinct"
  | Physical.Union _ -> "Union"
  | Physical.AntiJoin _ -> "AntiJoin"
  | Physical.SemiJoin _ -> "SemiJoin"
  | Physical.Limit _ -> "Limit"
  | Physical.Compute _ -> "Compute"
  | Physical.Aggregate _ -> "Aggregate"

let cols_str cols =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list cols)) ^ "]"

let kind_to_string = function
  | Unknown_table t -> Printf.sprintf "unknown table %s" t
  | Unknown_index_column { table; column } ->
      Printf.sprintf "table %s has no column %s (index key)" table column
  | Column_out_of_bounds { what; pos; arity } ->
      Printf.sprintf "%s references column %d but the input arity is %d" what pos arity
  | Key_arity_mismatch { left; right } ->
      Printf.sprintf "join key arity mismatch: %d left vs %d right columns" left right
  | Empty_join_key -> "equi-join has no key columns"
  | Probe_key_arity_mismatch { cols; key } ->
      Printf.sprintf "index probe supplies %d key values for %d indexed columns" key cols
  | Not_sorted { side; cols } ->
      Printf.sprintf "%s input not proven sorted ascending on %s"
        (match side with Left -> "left" | Right -> "right")
        (cols_str cols)
  | Not_grouped -> "DGJ outer input is not a grouped stream"
  | Type_mismatch { context; detail } -> Printf.sprintf "%s: %s" context detail
  | Union_arity_mismatch { left; right } ->
      Printf.sprintf "UNION of arity %d with arity %d" left right
  | Negative_limit n -> Printf.sprintf "negative LIMIT %d" n
  | Duplicate_columns msg -> "duplicate output columns: " ^ msg
  | Kernel_disagreement { checker; lowering } ->
      let opt = function Some k -> k | None -> "(none)" in
      Printf.sprintf "kernel eligibility drift: checker infers %s, lowering infers %s"
        (opt checker) (opt lowering)

let violation_to_string v =
  Printf.sprintf "%s at /%s: %s" v.node (String.concat "/" v.path) (kind_to_string v.kind)

let report vs = String.concat "\n" (List.map violation_to_string vs)

(* ------------------------------------------------------------------ *)

(* [Some ty] when the expression's type is known, [None] for Null literals
   and unresolvable references. *)
let expr_type emit schema ~what expr =
  let rec infer e =
    match e with
    | Expr.Col i ->
        let arity = Schema.arity schema in
        if i < 0 || i >= arity then begin
          emit (Column_out_of_bounds { what; pos = i; arity });
          None
        end
        else Some (Schema.column schema i).Schema.ty
    | Expr.Const Value.Null -> None
    | Expr.Const (Value.Int _) -> Some Schema.TInt
    | Expr.Const (Value.Float _) -> Some Schema.TFloat
    | Expr.Const (Value.Str _) -> Some Schema.TStr
    | Expr.Cmp (_, a, b) ->
        (match (infer a, infer b) with
        | Some Schema.TStr, Some (Schema.TInt | Schema.TFloat)
        | Some (Schema.TInt | Schema.TFloat), Some Schema.TStr ->
            emit
              (Type_mismatch
                 {
                   context = Printf.sprintf "%s %s" what (Expr.to_string e);
                   detail = "comparison mixes string and numeric operands";
                 })
        | _ -> ());
        Some Schema.TInt
    | Expr.And es | Expr.Or es ->
        List.iter (fun e -> ignore (infer e)) es;
        Some Schema.TInt
    | Expr.Not e | Expr.IsNull e ->
        ignore (infer e);
        Some Schema.TInt
    | Expr.Contains (operand, _) ->
        (match infer operand with
        | Some (Schema.TInt | Schema.TFloat) ->
            emit
              (Type_mismatch
                 {
                   context = Printf.sprintf "%s %s" what (Expr.to_string e);
                   detail = "ct() requires a string operand";
                 })
        | Some Schema.TStr | None -> ());
        Some Schema.TInt
  in
  infer expr

let numeric = function Schema.TInt | Schema.TFloat -> true | Schema.TStr -> false

let compatible a b = numeric a = numeric b

(* Is [cols] (ascending) a prefix of the proven [ordering]? *)
let sorted_on ordering cols =
  let rec prefix need have =
    match (need, have) with
    | [], _ -> true
    | n :: ns, h :: hs -> n = h && prefix ns hs
    | _ :: _, [] -> false
  in
  prefix (Array.to_list (Array.map (fun c -> (c, false)) cols)) ordering

(* Remap an ordering through a position substitution, truncating at the
   first column the substitution drops (anything past it is no longer a
   lexicographic prefix). *)
let remap_ordering ordering subst =
  let rec go = function
    | [] -> []
    | (c, d) :: rest -> ( match subst c with Some c' -> (c', d) :: go rest | None -> [])
  in
  go ordering

let scan_schema t alias =
  let s = Table.schema t in
  match alias with None -> s | Some a -> Schema.qualify a s

let verify catalog plan =
  let out = ref [] in
  let record rpath node kind = out := { path = List.rev rpath; node; kind } :: !out in
  let find_table rpath node name =
    match Catalog.find_opt catalog name with
    | Some t -> Some t
    | None ->
        record rpath node (Unknown_table name);
        None
  in
  (* Resolve named index/order columns against the table's base schema. *)
  let index_positions rpath node table cols =
    let schema = Table.schema table in
    let ok = ref true in
    let positions =
      List.map
        (fun c ->
          match Schema.index_opt schema c with
          | Some p -> p
          | None ->
              ok := false;
              record rpath node (Unknown_index_column { table = Table.name table; column = c });
              -1)
        cols
    in
    if !ok then Some positions else None
  in
  let check_expr rpath node ~what schema expr =
    ignore (expr_type (record rpath node) schema ~what expr)
  in
  let check_opt_expr rpath node ~what schema expr =
    match (schema, expr) with
    | Some schema, Some e -> check_expr rpath node ~what schema e
    | _ -> ()
  in
  (* Positional key array against a schema; returns the key column types
     (None entries where unknown). *)
  let key_types rpath node ~what schema cols =
    match schema with
    | None -> Array.map (fun _ -> None) cols
    | Some schema ->
        let arity = Schema.arity schema in
        Array.map
          (fun pos ->
            if pos < 0 || pos >= arity then begin
              record rpath node (Column_out_of_bounds { what; pos; arity });
              None
            end
            else Some (Schema.column schema pos).Schema.ty)
          cols
  in
  let check_key_pair rpath node ~lschema ~rschema ~left_cols ~right_cols =
    if Array.length left_cols <> Array.length right_cols then
      record rpath node
        (Key_arity_mismatch { left = Array.length left_cols; right = Array.length right_cols })
    else if Array.length left_cols = 0 then record rpath node Empty_join_key
    else begin
      let lt = key_types rpath node ~what:"left join key" lschema left_cols in
      let rt = key_types rpath node ~what:"right join key" rschema right_cols in
      Array.iteri
        (fun i t ->
          match (t, rt.(i)) with
          | Some a, Some b when not (compatible a b) ->
              record rpath node
                (Type_mismatch
                   {
                     context =
                       Printf.sprintf "join key #%d = #%d" left_cols.(i) right_cols.(i);
                     detail =
                       Printf.sprintf "%s column joined with %s column" (Schema.ty_to_string a)
                         (Schema.ty_to_string b);
                   })
          | _ -> ())
        lt
    end
  in
  let guarded_schema f = match f () with s -> Some s | exception Invalid_argument _ -> None in
  (* Independent re-derivation of kernel eligibility, compared against the
     lowering's {!Physical.kernel_site}.  The two must always agree; a
     mismatch means one of them drifted and the kernels could silently run
     (or not run) where the other layer believes otherwise. *)
  let check_kernel rpath node checker plan =
    let lowering = Physical.kernel_site catalog plan in
    if checker <> lowering then
      record rpath node
        (Kernel_disagreement
           {
             checker = Option.map Physical.kernel_name checker;
             lowering = Option.map Physical.kernel_name lowering;
           })
  in
  (* Nodes a pipeline step may sit on: base-table scan leaves and
     eligible steps, by physical identity, filled bottom-up. *)
  let chainable = ref [] in
  let chain_step plan ~left ok =
    let step = ok && List.memq left !chainable in
    if step then chainable := plan :: !chainable;
    step
  in
  let col_ty schema pos =
    match schema with
    | Some s when pos >= 0 && pos < Schema.arity s -> Some (Schema.column s pos).Schema.ty
    | _ -> None
  in
  (* Bottom-up walk; returns the node's output schema (None when it cannot
     be derived) and its property-lattice value. *)
  let rec go rpath plan : Schema.t option * props =
    let node = node_name plan in
    let sub label child = go (label :: rpath) child in
    match plan with
    | Physical.Scan { table; alias; pred } -> (
        match find_table rpath node table with
        | None -> (None, bottom)
        | Some t ->
            Option.iter (check_expr rpath node ~what:"scan predicate" (Table.schema t)) pred;
            chainable := plan :: !chainable;
            (Some (scan_schema t alias), bottom))
    | Physical.OrderedScan { table; alias; order_cols; desc; pred; grouped } -> (
        match find_table rpath node table with
        | None -> (None, bottom)
        | Some t ->
            Option.iter (check_expr rpath node ~what:"scan predicate" (Table.schema t)) pred;
            let ordering =
              match index_positions rpath node t order_cols with
              | Some ps -> List.map (fun p -> (p, desc)) ps
              | None -> []
            in
            chainable := plan :: !chainable;
            (Some (scan_schema t alias), { ordering; grouped }))
    | Physical.IndexProbe { table; alias; cols; key; pred } -> (
        match find_table rpath node table with
        | None -> (None, bottom)
        | Some t ->
            Option.iter (check_expr rpath node ~what:"probe predicate" (Table.schema t)) pred;
            (match index_positions rpath node t cols with
            | None -> ()
            | Some ps ->
                if List.length ps <> Array.length key then
                  record rpath node
                    (Probe_key_arity_mismatch { cols = List.length ps; key = Array.length key })
                else
                  List.iteri
                    (fun i p ->
                      let col = Schema.column (Table.schema t) p in
                      let key_ty =
                        match key.(i) with
                        | Value.Null -> None
                        | Value.Int _ -> Some Schema.TInt
                        | Value.Float _ -> Some Schema.TFloat
                        | Value.Str _ -> Some Schema.TStr
                      in
                      match key_ty with
                      | Some kt when not (compatible kt col.Schema.ty) ->
                          record rpath node
                            (Type_mismatch
                               {
                                 context = Printf.sprintf "probe key for %s.%s" table col.Schema.name;
                                 detail =
                                   Printf.sprintf "%s key against %s column" (Schema.ty_to_string kt)
                                     (Schema.ty_to_string col.Schema.ty);
                               })
                      | _ -> ())
                    ps);
            (Some (scan_schema t alias), bottom))
    | Physical.Filter { input; pred } ->
        let schema, props = sub "input" input in
        Option.iter (fun s -> check_expr rpath node ~what:"filter predicate" s pred) schema;
        (schema, props)
    | Physical.Project { input; cols } -> (
        let schema, props = sub "input" input in
        match schema with
        | None -> (None, bottom)
        | Some s ->
            let arity = Schema.arity s in
            let ok = ref true in
            List.iter
              (fun pos ->
                if pos < 0 || pos >= arity then begin
                  ok := false;
                  record rpath node (Column_out_of_bounds { what = "Project column"; pos; arity })
                end)
              cols;
            if not !ok then (None, bottom)
            else
              let subst c =
                let rec find i = function
                  | [] -> None
                  | x :: rest -> if x = c then Some i else find (i + 1) rest
                in
                find 0 cols
              in
              ( guarded_schema (fun () -> Schema.project s cols),
                { ordering = remap_ordering props.ordering subst; grouped = props.grouped } ))
    | Physical.HashJoin { left; right; left_cols; right_cols; residual } ->
        let lschema, lprops = sub "left" left in
        let rschema, _ = sub "right" right in
        check_key_pair rpath node ~lschema ~rschema ~left_cols ~right_cols;
        let int_keys =
          match (left_cols, right_cols, right, residual) with
          | [| lc |], [| rc |], Physical.Scan _, None ->
              col_ty lschema lc = Some Schema.TInt && col_ty rschema rc = Some Schema.TInt
          | _ -> false
        in
        let checker =
          if chain_step plan ~left int_keys then Some Physical.Kernel_hash_join else None
        in
        check_kernel rpath node checker plan;
        let schema =
          match (lschema, rschema) with
          | Some a, Some b -> guarded_schema (fun () -> Schema.concat a b)
          | _ -> None
        in
        check_opt_expr rpath node ~what:"join residual" schema residual;
        (* Streaming probe: the outer (left) order survives. *)
        (schema, { ordering = lprops.ordering; grouped = false })
    | Physical.MergeJoin { left; right; left_cols; right_cols; residual } ->
        let lschema, lprops = sub "left" left in
        let rschema, rprops = sub "right" right in
        check_key_pair rpath node ~lschema ~rschema ~left_cols ~right_cols;
        if not (sorted_on lprops.ordering left_cols) then
          record rpath node (Not_sorted { side = Left; cols = left_cols });
        if not (sorted_on rprops.ordering right_cols) then
          record rpath node (Not_sorted { side = Right; cols = right_cols });
        let schema =
          match (lschema, rschema) with
          | Some a, Some b -> guarded_schema (fun () -> Schema.concat a b)
          | _ -> None
        in
        check_opt_expr rpath node ~what:"join residual" schema residual;
        (schema, { ordering = lprops.ordering; grouped = false })
    | Physical.NLJoin { left; right; residual } ->
        let lschema, lprops = sub "left" left in
        let rschema, _ = sub "right" right in
        let schema =
          match (lschema, rschema) with
          | Some a, Some b -> guarded_schema (fun () -> Schema.concat a b)
          | _ -> None
        in
        check_opt_expr rpath node ~what:"join residual" schema residual;
        (schema, { ordering = lprops.ordering; grouped = false })
    | Physical.IndexNL { left; table; alias; table_cols; left_cols; pred; residual }
    | Physical.Idgj { left; table; alias; table_cols; left_cols; pred; residual }
    | Physical.Hdgj { left; table; alias; table_cols; left_cols; pred; residual } ->
        let is_dgj = match plan with Physical.IndexNL _ -> false | _ -> true in
        let lschema, lprops = sub "left" left in
        let schema, inner_types =
          match find_table rpath node table with
          | None -> (None, None)
          | Some t ->
              Option.iter (check_expr rpath node ~what:"inner predicate" (Table.schema t)) pred;
              let types =
                match index_positions rpath node t table_cols with
                | None -> None
                | Some ps ->
                    Some
                      (List.map (fun p -> (Schema.column (Table.schema t) p).Schema.ty) ps)
              in
              let schema =
                match lschema with
                | Some l -> guarded_schema (fun () -> Schema.concat l (scan_schema t alias))
                | None -> None
              in
              (schema, types)
        in
        (match inner_types with
        | Some tys when List.length tys <> Array.length left_cols ->
            record rpath node
              (Key_arity_mismatch { left = Array.length left_cols; right = List.length tys })
        | _ -> ());
        let lt = key_types rpath node ~what:"outer join key" lschema left_cols in
        (match inner_types with
        | Some tys when List.length tys = Array.length left_cols ->
            List.iteri
              (fun i ty ->
                match lt.(i) with
                | Some a when not (compatible a ty) ->
                    record rpath node
                      (Type_mismatch
                         {
                           context =
                             Printf.sprintf "join key #%d = %s.%s" left_cols.(i) table
                               (List.nth table_cols i);
                           detail =
                             Printf.sprintf "%s column joined with %s column" (Schema.ty_to_string a)
                               (Schema.ty_to_string ty);
                         })
                | _ -> ())
              tys
        | _ -> ());
        check_opt_expr rpath node ~what:"join residual" schema residual;
        let int_keys =
          match (plan, inner_types, residual) with
          | Physical.Hdgj _, _, _ -> false
          | _, Some [ Schema.TInt ], None ->
              Array.length left_cols = 1 && lt.(0) = Some Schema.TInt
          | _ -> false
        in
        let checker =
          if not (chain_step plan ~left int_keys) then None
          else
            match plan with
            | Physical.IndexNL _ -> Some Physical.Kernel_index_nl
            | _ -> Some Physical.Kernel_idgj
        in
        check_kernel rpath node checker plan;
        if is_dgj && not lprops.grouped then record rpath node Not_grouped;
        (* Nested loops preserve the outer order; DGJ operators additionally
           preserve groups (Section 5.3 property (a)). *)
        (schema, { ordering = lprops.ordering; grouped = is_dgj })
    | Physical.Sort { input; by } -> (
        let schema, _ = sub "input" input in
        match schema with
        | None -> (None, bottom)
        | Some s ->
            let arity = Schema.arity s in
            List.iter
              (fun (pos, _) ->
                if pos < 0 || pos >= arity then
                  record rpath node (Column_out_of_bounds { what = "Sort key"; pos; arity }))
              by;
            (Some s, { ordering = by; grouped = false }))
    | Physical.Distinct input ->
        (* Hash distinct passes tuples through in arrival order. *)
        let schema, props = sub "input" input in
        (schema, { ordering = props.ordering; grouped = false })
    | Physical.Union (a, b) ->
        let aschema, _ = sub "left" a in
        let bschema, _ = sub "right" b in
        (match (aschema, bschema) with
        | Some sa, Some sb ->
            if Schema.arity sa <> Schema.arity sb then
              record rpath node
                (Union_arity_mismatch { left = Schema.arity sa; right = Schema.arity sb })
            else
              Array.iteri
                (fun i (ca : Schema.column) ->
                  let cb = Schema.column sb i in
                  if not (compatible ca.Schema.ty cb.Schema.ty) then
                    record rpath node
                      (Type_mismatch
                         {
                           context = Printf.sprintf "UNION column %d" i;
                           detail =
                             Printf.sprintf "%s with %s" (Schema.ty_to_string ca.Schema.ty)
                               (Schema.ty_to_string cb.Schema.ty);
                         }))
                (Schema.columns sa)
        | _ -> ());
        ((match aschema with Some _ -> aschema | None -> bschema), bottom)
    | Physical.AntiJoin { left; right; left_cols; right_cols }
    | Physical.SemiJoin { left; right; left_cols; right_cols } ->
        let lschema, lprops = sub "left" left in
        let rschema, _ = sub "right" right in
        check_key_pair rpath node ~lschema ~rschema ~left_cols ~right_cols;
        (* Membership pass: left tuples stream through in order. *)
        (lschema, { ordering = lprops.ordering; grouped = false })
    | Physical.Limit (n, input) ->
        if n < 0 then record rpath node (Negative_limit n);
        sub "input" input
    | Physical.Compute { input; items } ->
        let schema, props = sub "input" input in
        List.iter
          (fun (e, name, declared) ->
            match schema with
            | None -> ()
            | Some s -> (
                match
                  expr_type (record rpath node) s
                    ~what:(Printf.sprintf "Compute item %s" name)
                    e
                with
                | Some inferred when not (compatible inferred declared) ->
                    record rpath node
                      (Type_mismatch
                         {
                           context = Printf.sprintf "Compute item %s" name;
                           detail =
                             Printf.sprintf "declared %s but the expression is %s"
                               (Schema.ty_to_string declared) (Schema.ty_to_string inferred);
                         })
                | _ -> ()))
          items;
        let out_schema =
          guarded_schema (fun () ->
              Schema.make (List.map (fun (_, name, ty) -> { Schema.name; ty }) items))
        in
        (match out_schema with
        | None ->
            record rpath node
              (Duplicate_columns
                 (String.concat ", " (List.map (fun (_, name, _) -> name) items)))
        | Some _ -> ());
        (* Items that are plain column references keep their order. *)
        let subst c =
          let rec find i = function
            | [] -> None
            | (Expr.Col c', _, _) :: rest -> if c' = c then Some i else find (i + 1) rest
            | _ :: rest -> find (i + 1) rest
          in
          find 0 items
        in
        (out_schema, { ordering = remap_ordering props.ordering subst; grouped = props.grouped })
    | Physical.Aggregate { input; keys; aggs } ->
        let schema, _ = sub "input" input in
        (match schema with
        | None -> ()
        | Some s ->
            List.iter
              (fun (e, name, _) ->
                ignore
                  (expr_type (record rpath node) s ~what:(Printf.sprintf "group key %s" name) e))
              keys;
            List.iter
              (fun (kind, arg, name, _) ->
                match arg with
                | None -> ()
                | Some e -> (
                    let t =
                      expr_type (record rpath node) s ~what:(Printf.sprintf "aggregate %s" name) e
                    in
                    match (kind, t) with
                    | (Physical.Sum | Physical.Avg), Some Schema.TStr ->
                        record rpath node
                          (Type_mismatch
                             {
                               context = Printf.sprintf "aggregate %s" name;
                               detail = "SUM/AVG over a string expression";
                             })
                    | _ -> ()))
              aggs);
        let out_schema =
          guarded_schema (fun () ->
              Schema.make
                (List.map (fun (_, name, ty) -> { Schema.name; ty }) keys
                @ List.map (fun (_, _, name, ty) -> { Schema.name; ty }) aggs))
        in
        (match out_schema with
        | None ->
            record rpath node
              (Duplicate_columns
                 (String.concat ", "
                    (List.map (fun (_, name, _) -> name) keys
                    @ List.map (fun (_, _, name, _) -> name) aggs)))
        | Some _ -> ());
        (out_schema, bottom)
  in
  ignore (go [] plan);
  List.rev !out

let check catalog plan =
  match verify catalog plan with [] -> () | vs -> raise (Plan_error vs)

let properties catalog plan =
  (* Re-run the walk and keep only the root's lattice value; violations are
     discarded. *)
  let rec props plan =
    match plan with
    | Physical.Scan _ | Physical.IndexProbe _ -> bottom
    | Physical.OrderedScan { table; order_cols; desc; grouped; _ } -> (
        match Catalog.find_opt catalog table with
        | None -> bottom
        | Some t ->
            let schema = Table.schema t in
            let ordering =
              List.filter_map
                (fun c -> Option.map (fun p -> (p, desc)) (Schema.index_opt schema c))
                order_cols
            in
            let ordering = if List.length ordering = List.length order_cols then ordering else [] in
            { ordering; grouped })
    | Physical.Filter { input; _ } | Physical.Limit (_, input) -> props input
    | Physical.Project { input; cols } ->
        let p = props input in
        let subst c =
          let rec find i = function
            | [] -> None
            | x :: rest -> if x = c then Some i else find (i + 1) rest
          in
          find 0 cols
        in
        { ordering = remap_ordering p.ordering subst; grouped = p.grouped }
    | Physical.HashJoin { left; _ }
    | Physical.MergeJoin { left; _ }
    | Physical.NLJoin { left; _ }
    | Physical.IndexNL { left; _ } ->
        { ordering = (props left).ordering; grouped = false }
    | Physical.Idgj { left; _ } | Physical.Hdgj { left; _ } ->
        { ordering = (props left).ordering; grouped = true }
    | Physical.Sort { by; _ } -> { ordering = by; grouped = false }
    | Physical.Distinct input -> { ordering = (props input).ordering; grouped = false }
    | Physical.AntiJoin { left; _ } | Physical.SemiJoin { left; _ } ->
        { ordering = (props left).ordering; grouped = false }
    | Physical.Union _ | Physical.Aggregate _ -> bottom
    | Physical.Compute { input; items } ->
        let p = props input in
        let subst c =
          let rec find i = function
            | [] -> None
            | (Expr.Col c', _, _) :: rest -> if c' = c then Some i else find (i + 1) rest
            | _ :: rest -> find (i + 1) rest
          in
          find 0 items
        in
        { ordering = remap_ordering p.ordering subst; grouped = p.grouped }
  in
  props plan
