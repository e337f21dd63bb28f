open Topo_sql

type est = { rows : float; cost : float }

type node = { label : string; est : est; children : node list }

let base_rows catalog table = float_of_int (Table.row_count (Catalog.find catalog table))

let base_sel catalog table pred =
  match pred with
  | None -> 1.0
  | Some p ->
      Table_stats.predicate_selectivity (Catalog.stats catalog table)
        (Table.schema (Catalog.find catalog table))
        p

let distinct_of catalog table col_pos =
  max 1 (Table_stats.distinct (Catalog.stats catalog table) col_pos)

(* Textbook default selectivities for predicates whose columns cannot be
   traced to a base table (join residuals, filters over computed values). *)
let rec default_sel (e : Expr.t) =
  match e with
  | Expr.Cmp (Expr.Eq, _, _) -> 0.1
  | Expr.Cmp (Expr.Ne, _, _) -> 0.9
  | Expr.Cmp (_, _, _) -> 0.33
  | Expr.Contains (_, _) -> 0.05
  | Expr.IsNull _ -> 0.05
  | Expr.Not e -> 1.0 -. default_sel e
  | Expr.And l -> List.fold_left (fun acc e -> acc *. default_sel e) 1.0 l
  | Expr.Or l -> 1.0 -. List.fold_left (fun acc e -> acc *. (1.0 -. default_sel e)) 1.0 l
  | Expr.Col _ | Expr.Const _ -> 1.0

let rec resolve_col catalog (plan : Physical.t) pos =
  let arity p = Schema.arity (Physical.schema catalog p) in
  match plan with
  | Physical.Scan { table; _ } | Physical.OrderedScan { table; _ } | Physical.IndexProbe { table; _ }
    ->
      if pos >= 0 && pos < Schema.arity (Table.schema (Catalog.find catalog table)) then
        Some (table, pos)
      else None
  | Physical.Filter { input; _ } | Physical.Sort { input; _ } -> resolve_col catalog input pos
  | Physical.Distinct input | Physical.Limit (_, input) -> resolve_col catalog input pos
  | Physical.Project { input; cols } -> (
      match List.nth_opt cols pos with Some p -> resolve_col catalog input p | None -> None)
  | Physical.HashJoin { left; right; _ }
  | Physical.MergeJoin { left; right; _ }
  | Physical.NLJoin { left; right; _ } ->
      let la = arity left in
      if pos < la then resolve_col catalog left pos else resolve_col catalog right (pos - la)
  | Physical.AntiJoin { left; _ } | Physical.SemiJoin { left; _ } -> resolve_col catalog left pos
  | Physical.IndexNL { left; table; _ } | Physical.Idgj { left; table; _ } | Physical.Hdgj { left; table; _ }
    ->
      let la = arity left in
      if pos < la then resolve_col catalog left pos
      else
        let p = pos - la in
        if p < Schema.arity (Table.schema (Catalog.find catalog table)) then Some (table, p)
        else None
  | Physical.Union (a, _) -> resolve_col catalog a pos
  | Physical.Compute _ | Physical.Aggregate _ -> None

(* System-R equi-join selectivity 1/max(d_left, d_right), with whichever
   side resolves to a base column; 0.1 when neither does. *)
let join_sel catalog ~left_plan ~left_pos ~right_plan ~right_pos =
  let d plan pos =
    Option.map (fun (t, p) -> distinct_of catalog t p) (resolve_col catalog plan pos)
  in
  match (d left_plan left_pos, d right_plan right_pos) with
  | Some dl, Some dr -> 1.0 /. float_of_int (max dl dr)
  | Some d, None | None, Some d -> 1.0 /. float_of_int d
  | None, None -> 0.1

let residual_sel = function None -> 1.0 | Some p -> default_sel p

let rec map_cols f (e : Expr.t) : Expr.t option =
  let open Expr in
  let all l = let l' = List.filter_map (map_cols f) l in if List.length l' = List.length l then Some l' else None in
  match e with
  | Col c -> Option.map (fun p -> Col p) (f c)
  | Const v -> Some (Const v)
  | Cmp (op, a, b) -> (
      match (map_cols f a, map_cols f b) with Some a, Some b -> Some (Cmp (op, a, b)) | _ -> None)
  | And l -> Option.map (fun l -> And l) (all l)
  | Or l -> Option.map (fun l -> Or l) (all l)
  | Not e -> Option.map (fun e -> Not e) (map_cols f e)
  | Contains (e, kw) -> Option.map (fun e -> Contains (e, kw)) (map_cols f e)
  | IsNull e -> Option.map (fun e -> IsNull e) (map_cols f e)

(* Selectivity of a predicate over a derived input: when every column
   traces to the same base table, remap the positions and use that table's
   histograms; otherwise fall back to the defaults. *)
let derived_sel catalog input pred =
  let cols = Expr.columns pred in
  let resolutions = List.map (fun c -> resolve_col catalog input c) cols in
  let same_table =
    match resolutions with
    | Some (t0, _) :: rest when List.for_all (function Some (t, _) -> t = t0 | None -> false) rest ->
        Some t0
    | _ -> None
  in
  match same_table with
  | Some t -> (
      let mapping = List.combine cols resolutions in
      let remap c = match List.assoc_opt c mapping with Some (Some (_, p)) -> Some p | _ -> None in
      match map_cols remap pred with
      | Some pred' -> base_sel catalog t (Some pred')
      | None -> default_sel pred)
  | None -> default_sel pred

let annotate catalog plan =
  let rec go (plan : Physical.t) =
    let label = Physical.node_label plan in
    let mk rows cost children = { label; est = { rows = Float.max 0.0 rows; cost }; children } in
    match plan with
    | Physical.Scan { table; pred; _ } ->
        let n = base_rows catalog table in
        mk (n *. base_sel catalog table pred) (n *. Optimizer.c_scan) []
    | Physical.OrderedScan { table; pred; _ } ->
        let n = base_rows catalog table in
        mk (n *. base_sel catalog table pred) (n *. Optimizer.c_scan *. 1.5) []
    | Physical.IndexProbe { table; cols; pred; _ } ->
        let n = base_rows catalog table in
        let t = Catalog.find catalog table in
        let d =
          List.fold_left
            (fun acc col -> acc * distinct_of catalog table (Schema.index_of (Table.schema t) col))
            1 cols
        in
        let matches = n /. float_of_int (max 1 d) *. base_sel catalog table pred in
        mk matches (Optimizer.c_probe +. (0.1 *. matches)) []
    | Physical.Filter { input; pred } ->
        let child = go input in
        let sel = derived_sel catalog input pred in
        mk (child.est.rows *. sel) (child.est.cost +. (0.05 *. child.est.rows)) [ child ]
    | Physical.Project { input; _ } ->
        let child = go input in
        mk child.est.rows (child.est.cost +. (0.01 *. child.est.rows)) [ child ]
    | Physical.HashJoin { left; right; left_cols; right_cols; residual } ->
        let l = go left and r = go right in
        let s =
          join_sel catalog ~left_plan:left ~left_pos:left_cols.(0) ~right_plan:right
            ~right_pos:right_cols.(0)
        in
        let out = l.est.rows *. r.est.rows *. s *. residual_sel residual in
        mk out
          (l.est.cost +. r.est.cost
          +. (Optimizer.c_hash *. (l.est.rows +. r.est.rows))
          +. (0.1 *. out))
          [ l; r ]
    | Physical.MergeJoin { left; right; left_cols; right_cols; residual } ->
        let l = go left and r = go right in
        let s =
          join_sel catalog ~left_plan:left ~left_pos:left_cols.(0) ~right_plan:right
            ~right_pos:right_cols.(0)
        in
        let out = l.est.rows *. r.est.rows *. s *. residual_sel residual in
        mk out
          (l.est.cost +. r.est.cost +. (0.3 *. (l.est.rows +. r.est.rows)) +. (0.1 *. out))
          [ l; r ]
    | Physical.NLJoin { left; right; residual } ->
        let l = go left and r = go right in
        let out = l.est.rows *. r.est.rows *. residual_sel residual in
        mk out (l.est.cost +. r.est.cost +. (0.1 *. l.est.rows *. Float.max 1.0 r.est.rows)) [ l; r ]
    | Physical.IndexNL { left; table; table_cols; left_cols; pred; residual; _ }
    | Physical.Idgj { left; table; table_cols; left_cols; pred; residual; _ }
    | Physical.Hdgj { left; table; table_cols; left_cols; pred; residual; _ } ->
        let l = go left in
        let n = base_rows catalog table in
        let key_pos = Schema.index_of (Table.schema (Catalog.find catalog table)) (List.hd table_cols) in
        let s =
          match resolve_col catalog left left_cols.(0) with
          | Some (lt, lp) ->
              Table_stats.join_selectivity ~left:(Catalog.stats catalog lt) ~left_col:lp
                ~right:(Catalog.stats catalog table) ~right_col:key_pos
          | None -> 1.0 /. float_of_int (distinct_of catalog table key_pos)
        in
        let psel = base_sel catalog table pred in
        let out = l.est.rows *. n *. s *. psel *. residual_sel residual in
        let per_probe =
          match plan with
          | Physical.Hdgj _ ->
              (* HDGJ re-scans the inner relation per group. *)
              n *. Optimizer.c_scan
          | _ -> Optimizer.c_probe +. (0.1 *. n *. s)
        in
        mk out (l.est.cost +. (l.est.rows *. per_probe) +. (0.1 *. out)) [ l ]
    | Physical.Sort { input; _ } ->
        let child = go input in
        let n = Float.max 1.0 child.est.rows in
        mk child.est.rows (child.est.cost +. (Optimizer.c_sort *. n *. Float.log2 (n +. 2.0))) [ child ]
    | Physical.Distinct input ->
        let child = go input in
        (* Upper bound: without multi-column distinct statistics the
           duplicate factor is unknown. *)
        mk child.est.rows (child.est.cost +. (Optimizer.c_hash *. child.est.rows)) [ child ]
    | Physical.Union (a, b) ->
        let l = go a and r = go b in
        mk (l.est.rows +. r.est.rows) (l.est.cost +. r.est.cost) [ l; r ]
    | Physical.AntiJoin { left; right; _ } | Physical.SemiJoin { left; right; _ } ->
        let l = go left and r = go right in
        mk (l.est.rows *. 0.5)
          (l.est.cost +. r.est.cost +. (Optimizer.c_hash *. (l.est.rows +. r.est.rows)))
          [ l; r ]
    | Physical.Limit (k, input) ->
        let child = go input in
        mk (Float.min (float_of_int k) child.est.rows) child.est.cost [ child ]
    | Physical.Compute { input; _ } ->
        let child = go input in
        mk child.est.rows (child.est.cost +. (0.05 *. child.est.rows)) [ child ]
    | Physical.Aggregate { input; keys; _ } ->
        let child = go input in
        let out = if keys = [] then 1.0 else Float.max 1.0 (child.est.rows /. 10.0) in
        mk out (child.est.cost +. (Optimizer.c_hash *. child.est.rows)) [ child ]
  in
  go plan
