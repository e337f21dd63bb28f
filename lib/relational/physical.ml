type t =
  | Scan of { table : string; alias : string option; pred : Expr.t option }
  | OrderedScan of {
      table : string;
      alias : string option;
      order_cols : string list;
      desc : bool;
      pred : Expr.t option;
      grouped : bool;
    }
  | IndexProbe of { table : string; alias : string option; cols : string list; key : Value.t array; pred : Expr.t option }
  | Filter of { input : t; pred : Expr.t }
  | Project of { input : t; cols : int list }
  | HashJoin of { left : t; right : t; left_cols : int array; right_cols : int array; residual : Expr.t option }
  | MergeJoin of { left : t; right : t; left_cols : int array; right_cols : int array; residual : Expr.t option }
  | NLJoin of { left : t; right : t; residual : Expr.t option }
  | IndexNL of {
      left : t;
      table : string;
      alias : string option;
      table_cols : string list;
      left_cols : int array;
      pred : Expr.t option;
      residual : Expr.t option;
    }
  | Idgj of {
      left : t;
      table : string;
      alias : string option;
      table_cols : string list;
      left_cols : int array;
      pred : Expr.t option;
      residual : Expr.t option;
    }
  | Hdgj of {
      left : t;
      table : string;
      alias : string option;
      table_cols : string list;
      left_cols : int array;
      pred : Expr.t option;
      residual : Expr.t option;
    }
  | Sort of { input : t; by : (int * bool) list }
  | Distinct of t
  | Union of t * t
  | AntiJoin of { left : t; right : t; left_cols : int array; right_cols : int array }
  | SemiJoin of { left : t; right : t; left_cols : int array; right_cols : int array }
  | Limit of int * t
  | Compute of { input : t; items : (Expr.t * string * Schema.ty) list }
  | Aggregate of {
      input : t;
      keys : (Expr.t * string * Schema.ty) list;
      aggs : (agg_kind * Expr.t option * string * Schema.ty) list;
    }

and agg_kind = Count_star | Count | Sum | Min | Max | Avg

let table_schema catalog name alias =
  let s = Table.schema (Catalog.find catalog name) in
  match alias with None -> s | Some a -> Schema.qualify a s

let rec schema catalog = function
  | Scan { table; alias; _ } | IndexProbe { table; alias; _ } -> table_schema catalog table alias
  | OrderedScan { table; alias; _ } -> table_schema catalog table alias
  | Filter { input; _ } -> schema catalog input
  | Project { input; cols } -> Schema.project (schema catalog input) cols
  | HashJoin { left; right; _ } | MergeJoin { left; right; _ } | NLJoin { left; right; _ } ->
      Schema.concat (schema catalog left) (schema catalog right)
  | IndexNL { left; table; alias; _ } | Idgj { left; table; alias; _ } | Hdgj { left; table; alias; _ } ->
      Schema.concat (schema catalog left) (table_schema catalog table alias)
  | Sort { input; _ } -> schema catalog input
  | Distinct input -> schema catalog input
  | Union (a, _) -> schema catalog a
  | AntiJoin { left; _ } | SemiJoin { left; _ } -> schema catalog left
  | Limit (_, input) -> schema catalog input
  | Compute { items; _ } ->
      Schema.make (List.map (fun (_, name, ty) -> { Schema.name; ty }) items)
  | Aggregate { keys; aggs; _ } ->
      Schema.make
        (List.map (fun (_, name, ty) -> { Schema.name; ty }) keys
        @ List.map (fun (_, _, name, ty) -> { Schema.name; ty }) aggs)

(* Scans expose qualified names but the underlying table stores unqualified
   columns, so predicates pushed into scans use positions; positions are
   alias-independent. *)

let node_label = function
  | Scan { table; _ } -> "SeqScan " ^ table
  | OrderedScan { table; _ } -> "OrderedScan " ^ table
  | IndexProbe { table; _ } -> "IndexProbe " ^ table
  | Filter _ -> "Filter"
  | Project _ -> "Project"
  | HashJoin _ -> "HashJoin"
  | MergeJoin _ -> "MergeJoin"
  | NLJoin _ -> "NLJoin"
  | IndexNL { table; _ } -> "IndexNLJoin " ^ table
  | Idgj { table; _ } -> "IDGJ " ^ table
  | Hdgj { table; _ } -> "HDGJ " ^ table
  | Sort _ -> "Sort"
  | Distinct _ -> "Distinct"
  | Union _ -> "Union"
  | AntiJoin _ -> "AntiJoin"
  | SemiJoin _ -> "SemiJoin"
  | Limit _ -> "Limit"
  | Compute _ -> "Compute"
  | Aggregate _ -> "Aggregate"

let children = function
  | Scan _ | OrderedScan _ | IndexProbe _ -> []
  | Filter { input; _ } | Project { input; _ } | Sort { input; _ } | Compute { input; _ }
  | Aggregate { input; _ } ->
      [ input ]
  | Distinct input | Limit (_, input) -> [ input ]
  | HashJoin { left; right; _ } | MergeJoin { left; right; _ } | NLJoin { left; right; _ }
  | AntiJoin { left; right; _ } | SemiJoin { left; right; _ } ->
      [ left; right ]
  | Union (a, b) -> [ a; b ]
  | IndexNL { left; _ } | Idgj { left; _ } | Hdgj { left; _ } -> [ left ]

(* ------------------------------------------------------------------ *)
(* Join pipelines                                                      *)

type kernel = Kernel_hash_join | Kernel_index_nl | Kernel_idgj

let kernel_name = function
  | Kernel_hash_join -> "hash-join"
  | Kernel_index_nl -> "index-nl-join"
  | Kernel_idgj -> "idgj"

(* The chain whose top is [plan]: its leaf node and its join steps,
   bottom-up.  A step joins on one column, declared int on both sides,
   with no residual, and a hash join builds from a base-table scan; the
   leaf is a base-table scan.  Declared types are a promise tables do not
   enforce, so the lowering re-checks the actual lanes
   ({!Op_kernel.pipeline}) and cuts the chain where a cell broke it. *)
let chain catalog plan =
  let find = Catalog.find catalog in
  let rec collect plan steps =
    match plan with
    | (Scan { table; _ } | OrderedScan { table; _ }) when steps <> [] -> Some (plan, find table, steps)
    | HashJoin { left; right = Scan { table; pred; _ }; left_cols = [| lc |]; right_cols = [| rc |]; residual = None } ->
        let step = { Op_kernel.join = Op_kernel.Hash_join; table = find table; col = rc; pred; outer_pos = lc } in
        collect left (step :: steps)
    | ( IndexNL { left; table; table_cols = [ tc ]; left_cols = [| lc |]; pred; residual = None; _ }
      | Idgj { left; table; table_cols = [ tc ]; left_cols = [| lc |]; pred; residual = None; _ } ) as node ->
        let tb = find table in
        let join = match node with IndexNL _ -> Op_kernel.Index_nl | _ -> Op_kernel.Idgj in
        let col = Schema.index_of (Table.schema tb) tc in
        collect left ({ Op_kernel.join; table = tb; col; pred; outer_pos = lc } :: steps)
    | _ -> None
  in
  let declared_int tb col =
    match (Schema.column (Table.schema tb) col).Schema.ty with
    | Schema.TInt -> true
    | Schema.TFloat | Schema.TStr -> false
  in
  (* Is position [pos] of the concatenation of [tables] declared int? *)
  let rec int_at tables pos =
    match tables with
    | tb :: rest when pos >= 0 ->
        let arity = Schema.arity (Table.schema tb) in
        if pos < arity then declared_int tb pos else int_at rest (pos - arity)
    | _ -> false
  in
  let rec typed tables = function
    | [] -> true
    | (s : Op_kernel.step) :: rest ->
        int_at tables s.outer_pos && declared_int s.table s.col && typed (tables @ [ s.table ]) rest
  in
  try
    match collect plan [] with
    | Some (leaf, leaf_table, steps) when typed [ leaf_table ] steps -> Some (leaf, steps)
    | Some _ | None -> None
  with Not_found | Invalid_argument _ -> None

let kernel_site catalog plan =
  match (plan, chain catalog plan) with
  | _, None -> None
  | HashJoin _, Some _ -> Some Kernel_hash_join
  | IndexNL _, Some _ -> Some Kernel_index_nl
  | Idgj _, Some _ -> Some Kernel_idgj
  | _, Some _ -> None

(* Build-side cardinality estimate for pre-sizing hash tables.  Conservative
   and purely structural: only shapes whose output count is knowable without
   statistics. *)
let rec estimate_rows catalog = function
  | Scan { table; _ } | OrderedScan { table; _ } ->
      Option.map Table.row_count (Catalog.find_opt catalog table)
  | Filter { input; _ } | Sort { input; _ } -> estimate_rows catalog input
  | Project { input; _ } | Compute { input; _ } -> estimate_rows catalog input
  | Distinct input -> estimate_rows catalog input
  | Limit (n, input) -> (
      match estimate_rows catalog input with Some m -> Some (min n m) | None -> Some n)
  | _ -> None

(* [plan] (or the [Project] directly above it) as one pipeline, when
   [plan] tops a chain whose key columns all have int lanes. *)
let pipeline catalog plan ~project =
  match chain catalog plan with
  | None -> None
  | Some (leaf, steps) ->
      let leaf =
        match leaf with
        | Scan { table; pred; _ } ->
            { Op_kernel.table = Catalog.find catalog table; order = None; pred; grouped = false }
        | OrderedScan { table; order_cols; desc; pred; grouped; _ } ->
            let tb = Catalog.find catalog table in
            let order = Some (Op_scan.ordered_rownos ~desc tb ~cols:order_cols) in
            { Op_kernel.table = tb; order; pred; grouped }
        | _ -> invalid_arg "Physical.pipeline"
      in
      let full = schema catalog plan in
      let schema = match project with Some cols -> Schema.project full cols | None -> full in
      Op_kernel.pipeline ~schema leaf (Array.of_list steps) ~project

(* A pipeline replaces a whole chain, so [wrap] sees only its root; the
   unfused lowering gives every node its own generic iterator. *)
let rec lower_with ?(fuse = true) ~wrap catalog plan =
  let fused =
    if not (fuse && Op_kernel.kernels_on ()) then None
    else
      match plan with
      | HashJoin _ | IndexNL _ | Idgj _ -> pipeline catalog plan ~project:None
      | Project { input; cols } -> pipeline catalog input ~project:(Some cols)
      | _ -> None
  in
  wrap plan (match fused with Some it -> it | None -> lower_node ~fuse ~wrap catalog plan)

(* [plan]'s own generic operator over its lowered inputs. *)
and lower_node ~fuse ~wrap catalog plan =
  let lower catalog plan = lower_with ~fuse ~wrap catalog plan in
  match plan with
  | Scan { table; alias; pred } ->
      let it = Op_scan.seq ?pred (Catalog.find catalog table) in
      relabel catalog plan it alias
  | OrderedScan { table; alias; order_cols; desc; pred; grouped } ->
      let it = Op_scan.ordered ?pred ~desc (Catalog.find catalog table) ~cols:order_cols in
      let it = if grouped then Op_scan.grouped_by_tuple it else it in
      relabel catalog plan it alias
  | IndexProbe { table; alias; cols; key; pred } ->
      let it = Op_scan.index_probe ?pred (Catalog.find catalog table) ~cols ~key in
      relabel catalog plan it alias
  | Filter { input; pred } -> Op_basic.filter pred (lower catalog input)
  | Project { input; cols } -> Op_basic.project (lower catalog input) ~cols
  | HashJoin { left; right; left_cols; right_cols; residual } ->
      Op_join.hash_join ~left:(lower catalog left) ~right:(lower catalog right) ~left_cols
        ~right_cols ?residual
        ?build_hint:(estimate_rows catalog right) ()
  | MergeJoin { left; right; left_cols; right_cols; residual } ->
      Op_join.merge_join ~left:(lower catalog left) ~right:(lower catalog right) ~left_cols ~right_cols
        ?residual ()
  | NLJoin { left; right; residual } ->
      Op_join.nl_join ~left:(lower catalog left) ~right:(lower catalog right) ?residual ()
  | IndexNL { left; table; alias = _; table_cols; left_cols; pred; residual } ->
      Op_join.index_nl_join ~left:(lower catalog left) ~table:(Catalog.find catalog table) ~table_cols
        ~left_cols ?pred ?residual ()
  | Idgj { left; table; alias = _; table_cols; left_cols; pred; residual } ->
      Op_dgj.idgj ~outer:(lower catalog left) ~table:(Catalog.find catalog table) ~table_cols
        ~outer_cols:left_cols ?pred ?residual ()
  | Hdgj { left; table; alias = _; table_cols; left_cols; pred; residual } ->
      Op_dgj.hdgj ~outer:(lower catalog left) ~table:(Catalog.find catalog table) ~table_cols ~outer_cols:left_cols
        ?pred ?residual ()
  | Sort { input; by } -> Op_basic.sort (lower catalog input) ~by
  | Distinct input -> Op_basic.distinct (lower catalog input)
  | Union (a, b) -> Op_basic.union (lower catalog a) (lower catalog b)
  | AntiJoin { left; right; left_cols; right_cols } ->
      Op_join.anti_join ~left:(lower catalog left) ~right:(lower catalog right) ~left_cols ~right_cols ()
  | SemiJoin { left; right; left_cols; right_cols } ->
      Op_join.semi_join ~left:(lower catalog left) ~right:(lower catalog right) ~left_cols ~right_cols ()
  | Limit (n, input) -> Op_basic.limit n (lower catalog input)
  | Compute { input; items } as node ->
      let out_schema = schema catalog node in
      let exprs = List.map (fun (e, _, _) -> e) items in
      Op_basic.compute (lower catalog input) ~schema:out_schema ~exprs
  | Aggregate { input; keys; aggs } as node ->
      let out_schema = schema catalog node in
      let key_exprs = List.map (fun (e, _, _) -> e) keys in
      let agg_specs =
        List.map
          (fun (kind, arg, _, _) ->
            let op =
              match kind with
              | Count_star -> Op_basic.ACount_star
              | Count -> Op_basic.ACount
              | Sum -> Op_basic.ASum
              | Min -> Op_basic.AMin
              | Max -> Op_basic.AMax
              | Avg -> Op_basic.AAvg
            in
            (op, arg))
          aggs
      in
      Op_basic.hash_aggregate (lower catalog input) ~schema:out_schema ~keys:key_exprs ~aggs:agg_specs

and relabel catalog plan it alias =
  (* The scan operator reports the table's raw schema; substitute the
     qualified one so positions stay identical but names are qualified. *)
  match alias with
  | None -> it
  | Some _ -> { it with Iterator.schema = schema catalog plan }

let lower catalog plan = lower_with ~wrap:(fun _ it -> it) catalog plan

let lower_checked catalog plan =
  lower_with
    ~wrap:(fun node it -> Iterator_check.wrap ~name:(node_label node) it)
    catalog plan

let lower_instrumented catalog plan =
  (* [lower_with] invokes [wrap] once per plan node with that node's own
     subtree value, so physical identity links each stats record back to
     its node; the annotated tree is then rebuilt in [children] order. *)
  let collected = ref [] in
  let wrap node it =
    let stats = Op_stats.create ~label:(node_label node) in
    collected := (node, stats) :: !collected;
    Op_stats.wrap stats it
  in
  let it = lower_with ~fuse:false ~wrap catalog plan in
  let stats_of node =
    match List.find_opt (fun (n, _) -> n == node) !collected with
    | Some (_, s) -> s
    | None -> Op_stats.create ~label:(node_label node)
  in
  let rec build node =
    { Op_stats.stats = stats_of node; children = List.map build (children node) }
  in
  (it, build plan)

let run catalog plan = Iterator.to_list (lower catalog plan)

let pred_str = function None -> "" | Some p -> " pred=" ^ Expr.to_string p

let cols_str cols = "[" ^ String.concat "," (List.map string_of_int (Array.to_list cols)) ^ "]"

let explain plan =
  let buf = Buffer.create 256 in
  let rec go indent plan =
    let pad = String.make (indent * 2) ' ' in
    let line s = Buffer.add_string buf (pad ^ s ^ "\n") in
    match plan with
    | Scan { table; pred; _ } -> line (Printf.sprintf "SeqScan %s%s" table (pred_str pred))
    | OrderedScan { table; order_cols; desc; grouped; pred; _ } ->
        line
          (Printf.sprintf "OrderedScan %s by %s%s%s%s" table (String.concat "," order_cols)
             (if desc then " desc" else "")
             (if grouped then " (grouped)" else "")
             (pred_str pred))
    | IndexProbe { table; cols; pred; _ } ->
        line (Printf.sprintf "IndexProbe %s on %s%s" table (String.concat "," cols) (pred_str pred))
    | Filter { input; pred } ->
        line ("Filter " ^ Expr.to_string pred);
        go (indent + 1) input
    | Project { input; cols } ->
        line ("Project [" ^ String.concat "," (List.map string_of_int cols) ^ "]");
        go (indent + 1) input
    | HashJoin { left; right; left_cols; right_cols; _ } ->
        line (Printf.sprintf "HashJoin %s=%s" (cols_str left_cols) (cols_str right_cols));
        go (indent + 1) left;
        go (indent + 1) right
    | MergeJoin { left; right; left_cols; right_cols; _ } ->
        line (Printf.sprintf "MergeJoin %s=%s" (cols_str left_cols) (cols_str right_cols));
        go (indent + 1) left;
        go (indent + 1) right
    | NLJoin { left; right; _ } ->
        line "NLJoin";
        go (indent + 1) left;
        go (indent + 1) right
    | IndexNL { left; table; table_cols; left_cols; _ } ->
        line
          (Printf.sprintf "IndexNLJoin %s on %s=%s" table (cols_str left_cols)
             (String.concat "," table_cols));
        go (indent + 1) left
    | Idgj { left; table; table_cols; left_cols; _ } ->
        line (Printf.sprintf "IDGJ %s on %s=%s" table (cols_str left_cols) (String.concat "," table_cols));
        go (indent + 1) left
    | Hdgj { left; table; table_cols; left_cols; _ } ->
        line (Printf.sprintf "HDGJ %s on %s=%s" table (cols_str left_cols) (String.concat "," table_cols));
        go (indent + 1) left
    | Sort { input; by } ->
        line
          ("Sort "
          ^ String.concat ","
              (List.map (fun (c, d) -> string_of_int c ^ if d then " desc" else " asc") by));
        go (indent + 1) input
    | Distinct input ->
        line "Distinct";
        go (indent + 1) input
    | Union (a, b) ->
        line "Union";
        go (indent + 1) a;
        go (indent + 1) b
    | AntiJoin { left; right; left_cols; right_cols } ->
        line (Printf.sprintf "AntiJoin %s=%s" (cols_str left_cols) (cols_str right_cols));
        go (indent + 1) left;
        go (indent + 1) right
    | SemiJoin { left; right; left_cols; right_cols } ->
        line (Printf.sprintf "SemiJoin %s=%s" (cols_str left_cols) (cols_str right_cols));
        go (indent + 1) left;
        go (indent + 1) right
    | Compute { input; items } ->
        line ("Compute [" ^ String.concat ", " (List.map (fun (e, n, _) -> n ^ "=" ^ Expr.to_string e) items) ^ "]");
        go (indent + 1) input
    | Aggregate { input; keys; aggs } ->
        let agg_name = function
          | Count_star -> "count(*)"
          | Count -> "count"
          | Sum -> "sum"
          | Min -> "min"
          | Max -> "max"
          | Avg -> "avg"
        in
        line
          (Printf.sprintf "Aggregate keys=[%s] aggs=[%s]"
             (String.concat ", " (List.map (fun (e, _, _) -> Expr.to_string e) keys))
             (String.concat ", " (List.map (fun (k, _, n, _) -> n ^ "=" ^ agg_name k) aggs)));
        go (indent + 1) input
    | Limit (n, input) ->
        line (Printf.sprintf "Limit %d" n);
        go (indent + 1) input
  in
  go 0 plan;
  Buffer.contents buf
