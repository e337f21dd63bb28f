type dim = {
  dim_table : string;
  dim_alias : string;
  dim_key : string;
  fact_col : string;
  dim_pred : Expr.t option;
}

type spec = {
  group_table : string;
  group_key : string;
  score_col : string;
  group_pred : Expr.t option;
  fact_table : string;
  fact_group_col : string;
  dims : dim list;
  k : int;
  group_cards : int array option;
}

type strategy = Regular | Early_termination

type decision = {
  plan : Physical.t;
  strategy : strategy;
  regular_cost : float;
  et_cost : float;
}

(* Abstract cost units: one hash-index probe = 1.0.  Sequential access is
   cheaper per row; hashing and sorting pay per-tuple CPU. *)
let c_scan = 0.25

let c_hash = 0.6

let c_sort = 0.8

let c_probe = 1.0

(* ------------------------------------------------------------------ *)
(* Catalog-derived statistics                                          *)

type rel_info = {
  table : string;
  alias : string;
  pred : Expr.t option;
  base_rows : int;
  sel : float;
  out_rows : float;  (* after local predicate *)
  arity : int;
  schema : Schema.t;
  stats : Table_stats.t;
}

let rel_info catalog ~table ~alias ~pred =
  let t = Catalog.find catalog table in
  let stats = Catalog.stats catalog table in
  let schema = Table.schema t in
  let sel =
    match pred with
    | None -> 1.0
    | Some p -> Table_stats.predicate_selectivity stats schema p
  in
  let base_rows = Table.row_count t in
  {
    table;
    alias;
    pred;
    base_rows;
    sel;
    out_rows = float_of_int base_rows *. sel;
    arity = Schema.arity schema;
    schema;
    stats;
  }

let col_pos catalog table col = Schema.index_of (Table.schema (Catalog.find catalog table)) col

let join_sel (l : rel_info) lcol (r : rel_info) rcol =
  Table_stats.join_selectivity ~left:l.stats ~left_col:(Schema.index_of l.schema lcol) ~right:r.stats
    ~right_col:(Schema.index_of r.schema rcol)

(* ------------------------------------------------------------------ *)
(* Regular plans: System-R dynamic program over left-deep join orders  *)

(* Relations are numbered 0 = group, 1 = fact, 2.. = dims; the join graph
   is a star around the fact relation plus the group-fact edge. *)

type dp_state = {
  cost : float;
  card : float;
  plan : Physical.t;
  order : int list;  (* rel ids, leftmost first *)
  score_ordered : bool;
      (* interesting order: tuples flow in the group relation's descending
         score order (System-R keeps the best plan per interesting order,
         Section 5.4.1) *)
}

(* A join edge seen from the relation already in the prefix: its own
   column's position, the new relation's column (name and position), and
   the edge's join selectivity. *)
type edge = { left_col : int; right_col : string; right_pos : int; edge_sel : float }

let regular_plan ?(check = false) catalog spec =
  let dims = Array.of_list spec.dims in
  let nrels = 2 + Array.length dims in
  let infos =
    Array.init nrels (fun i ->
        if i = 0 then rel_info catalog ~table:spec.group_table ~alias:"G" ~pred:spec.group_pred
        else if i = 1 then rel_info catalog ~table:spec.fact_table ~alias:"F" ~pred:None
        else
          let d = dims.(i - 2) in
          rel_info catalog ~table:d.dim_table ~alias:d.dim_alias ~pred:d.dim_pred)
  in
  (* Join edge between rel a and rel b, as (col-in-a, col-in-b), if any;
     positions and selectivities are derived once per call, before the
     DP extends any prefix. *)
  let named a b =
    if a = 0 && b = 1 then Some (spec.group_key, spec.fact_group_col)
    else if a = 1 && b >= 2 then Some (dims.(b - 2).fact_col, dims.(b - 2).dim_key)
    else None
  in
  let edges =
    Array.init nrels (fun a ->
        Array.init nrels (fun b ->
            let cols =
              match named a b with
              | Some e -> Some e
              | None -> Option.map (fun (x, y) -> (y, x)) (named b a)
            in
            Option.map
              (fun (ca, cb) ->
                {
                  left_col = Schema.index_of infos.(a).schema ca;
                  right_col = cb;
                  right_pos = Schema.index_of infos.(b).schema cb;
                  edge_sel = join_sel infos.(a) ca infos.(b) cb;
                })
              cols))
  in
  let scan i =
    let info = infos.(i) in
    let plan = Physical.Scan { table = info.table; alias = Some info.alias; pred = info.pred } in
    { cost = float_of_int info.base_rows *. c_scan; card = info.out_rows; plan; order = [ i ]; score_ordered = false }
  in
  (* Accessing the group relation through its score index yields the
     interesting order for free modulo a costlier ordered scan. *)
  let ordered_scan_g =
    let info = infos.(0) in
    {
      cost = float_of_int info.base_rows *. c_scan *. 1.5;
      card = info.out_rows;
      plan =
        Physical.OrderedScan
          {
            table = info.table;
            alias = Some info.alias;
            order_cols = [ spec.score_col ];
            desc = true;
            pred = info.pred;
            grouped = false;
          };
      order = [ 0 ];
      score_ordered = true;
    }
  in
  (* Offset of rel [r] inside the concatenated schema of [order]. *)
  let offset_of order r =
    let rec go acc = function
      | [] -> invalid_arg "offset_of"
      | x :: rest -> if x = r then acc else go (acc + infos.(x).arity) rest
    in
    go 0 order
  in
  let extend state r =
    (* The first rel of the prefix with a join edge to r. *)
    match List.find_map (fun p -> Option.map (fun e -> (p, e)) edges.(p).(r)) state.order with
    | None -> []
    | Some (p, e) ->
        let info = infos.(r) in
        let left_pos = offset_of state.order p + e.left_col in
        let rcol_pos = e.right_pos in
        let s = e.edge_sel in
        let out = state.card *. info.out_rows *. s in
        let order = state.order @ [ r ] in
        (* Streaming-probe hash join and index-NL join both preserve the
           outer (prefix) order, so the interesting order survives. *)
        let hash =
          {
            cost =
              state.cost
              +. (float_of_int info.base_rows *. c_scan)
              +. (c_hash *. (state.card +. info.out_rows))
              +. (0.1 *. out);
            card = out;
            plan =
              Physical.HashJoin
                {
                  left = state.plan;
                  right = Physical.Scan { table = info.table; alias = Some info.alias; pred = info.pred };
                  left_cols = [| left_pos |];
                  right_cols = [| rcol_pos |];
                  residual = None;
                };
            order;
            score_ordered = state.score_ordered;
          }
        in
        let matches_per_probe = s *. float_of_int info.base_rows in
        let inl =
          {
            cost =
              state.cost
              +. (state.card *. (c_probe +. (matches_per_probe *. 0.1)))
              +. (0.1 *. out);
            card = out;
            plan =
              Physical.IndexNL
                {
                  left = state.plan;
                  table = info.table;
                  alias = Some info.alias;
                  table_cols = [ e.right_col ];
                  left_cols = [| left_pos |];
                  pred = info.pred;
                  residual = None;
                };
            order;
            score_ordered = state.score_ordered;
          }
        in
        (* Sort-merge join: sort both sides on the join key (destroying the
           score order), then a cheap linear merge. *)
        let nl = Float.max 1.0 state.card and nr = Float.max 1.0 info.out_rows in
        let merge =
          {
            cost =
              state.cost
              +. (float_of_int info.base_rows *. c_scan)
              +. (c_sort *. nl *. Float.log2 (nl +. 2.0))
              +. (c_sort *. nr *. Float.log2 (nr +. 2.0))
              +. (0.3 *. (nl +. nr))
              +. (0.1 *. out);
            card = out;
            plan =
              Physical.MergeJoin
                {
                  left = Physical.Sort { input = state.plan; by = [ (left_pos, false) ] };
                  right =
                    Physical.Sort
                      {
                        input = Physical.Scan { table = info.table; alias = Some info.alias; pred = info.pred };
                        by = [ (rcol_pos, false) ];
                      };
                  left_cols = [| left_pos |];
                  right_cols = [| rcol_pos |];
                  residual = None;
                };
            order;
            score_ordered = false;
          }
        in
        [ hash; inl; merge ]
  in
  (* Subset DP keyed by (bitmask, interesting order), stored at
     [mask * 2 + ordered]; keep the cheapest state per key — the System-R
     rule of retaining the least-cost plan for each interesting order. *)
  let slot mask ordered = (mask * 2) + if ordered then 1 else 0 in
  let full = (1 lsl nrels) - 1 in
  let best = Array.make (slot full true + 1) None in
  let consider mask state =
    (* With [check] on, every candidate the DP prices must verify — a bad
       join-key offset computed by [extend] is a bug here, not downstream. *)
    if check then Plan_check.check catalog state.plan;
    let i = slot mask state.score_ordered in
    match best.(i) with
    | Some s when s.cost <= state.cost -> ()
    | Some _ | None -> best.(i) <- Some state
  in
  for i = 0 to nrels - 1 do
    consider (1 lsl i) (scan i)
  done;
  consider 1 ordered_scan_g;
  for i = slot 1 false to slot full true do
    match best.(i) with
    | None -> ()
    | Some state ->
        let mask = i / 2 in
        for r = 0 to nrels - 1 do
          if mask land (1 lsl r) = 0 then
            List.iter (fun st -> consider (mask lor (1 lsl r)) st) (extend state r)
        done
  done;
  (* Finish each final state: project (group key, score), distinct, then
     a sort only when the interesting order was not preserved. *)
  let key_col = Schema.index_of infos.(0).schema spec.group_key
  and score_col = Schema.index_of infos.(0).schema spec.score_col in
  let finish (final : dp_state) =
    let g_off = offset_of final.order 0 in
    let key_pos = g_off + key_col in
    let score_pos = g_off + score_col in
    let projected =
      Physical.Distinct (Physical.Project { input = final.plan; cols = [ key_pos; score_pos ] })
    in
    let n = Float.max 1.0 final.card in
    if final.score_ordered then
      (* Distinct preserves arrival order, so the top-k prefix is already
         correct: no sort. *)
      (Physical.Limit (spec.k, projected), final.cost +. n)
    else
      ( Physical.Limit (spec.k, Physical.Sort { input = projected; by = [ (1, true) ] }),
        final.cost +. n +. (c_sort *. n *. Float.log2 (n +. 2.0)) )
  in
  (* The unordered final state first; the ordered one replaces it only
     when strictly cheaper. *)
  let finals = List.filter_map (fun ordered -> Option.map finish best.(slot full ordered)) [ false; true ] in
  match finals with
  | [] -> invalid_arg "Optimizer.regular_plan: join graph is disconnected"
  | first :: rest ->
      let plan, cost =
        List.fold_left
          (fun ((_, acc_cost) as acc) ((_, cost) as c) -> if cost < acc_cost then c else acc)
          first rest
      in
      if check then Plan_check.check catalog plan;
      (plan, cost)

(* ------------------------------------------------------------------ *)
(* Early-termination plans: grouped scan + DGJ stack                   *)

let group_cards_of catalog spec ~order ~count =
  let gt = Catalog.find catalog spec.group_table in
  let key_pos = col_pos catalog spec.group_table spec.group_key in
  let keep = Option.map (Row_filter.compile gt) spec.group_pred in
  let cards = Topo_util.Dyn.create () in
  Array.iter
    (fun rowno ->
      let tuple = Table.get gt rowno in
      let keep = match keep with None -> true | Some f -> f rowno tuple in
      if keep then Topo_util.Dyn.push cards (count tuple.(key_pos)))
    order;
  Topo_util.Dyn.to_array cards

(* Card_i per group, in descending score order, after the group
   predicate, read through the tables' cached indexes. *)
let group_cards catalog spec =
  let gt = Catalog.find catalog spec.group_table in
  let ft = Catalog.find catalog spec.fact_table in
  let sorted = Table.ensure_index gt ~kind:Index.Sorted ~cols:[ spec.score_col ] in
  let fact_idx = Table.ensure_index ft ~kind:Index.Hash ~cols:[ spec.fact_group_col ] in
  group_cards_of catalog spec
    ~order:(Index.ordered_rows ~desc:true sorted)
    ~count:(fun key -> Index.probe_count fact_idx [| key |])

let et_pricer catalog spec ~cards =
  (* Dimension statistics are independent of the order/implementation
     being costed; compute them once and close over them. *)
  let dims = Array.of_list spec.dims in
  let fact = rel_info catalog ~table:spec.fact_table ~alias:"F" ~pred:None in
  let dim_stats =
    Array.map
      (fun d ->
        let info = rel_info catalog ~table:d.dim_table ~alias:d.dim_alias ~pred:d.dim_pred in
        (info, join_sel fact d.fact_col info d.dim_key))
      dims
  in
  let avg_card =
    let n = Array.length cards in
    if n = 0 then 1.0
    else Float.max 1.0 (float_of_int (Array.fold_left ( + ) 0 cards) /. float_of_int n)
  in
  let fact_rows = fact.base_rows in
  (* The hit probabilities and the per-group powers of the model depend on
     the dimension order only, so they are prepared once per order and
     shared by its implementation choices. *)
  fun ~dim_order ->
    let order_stats = Array.of_list (List.map (fun idx -> dim_stats.(idx)) dim_order) in
    let levels probe_cost =
      Array.mapi
        (fun level (info, s) ->
          { Dgj_cost.n_inner = info.base_rows; probe_cost = probe_cost level info; pred_sel = info.sel; join_sel = s })
        order_stats
    in
    let prepared = Dgj_cost.prepare ~cards (levels (fun _ _ -> c_probe)) in
    let input_of ~impls =
      let fact_impl, dim_impls =
        match impls with f :: rest -> (f, Array.of_list rest) | [] -> invalid_arg "et_pricer"
      in
      let levels =
        levels (fun level info ->
            match dim_impls.(level) with
            | `I -> c_probe
            | `H ->
                (* HDGJ re-scans the inner per group; amortize the scan over
                   the group's tuples so the per-tuple model still applies. *)
                float_of_int info.base_rows *. c_scan /. avg_card)
      in
      let per_group_overhead =
        match fact_impl with
        | `I -> c_probe
        | `H -> float_of_int fact_rows *. c_scan
      in
      { Dgj_cost.cards; levels; k = spec.k; per_group_overhead }
    in
    (prepared, input_of)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let rec impl_choices n = if n = 0 then [ [] ] else
    List.concat_map (fun c -> [ `I :: c; `H :: c ]) (impl_choices (n - 1))

let et_plan catalog spec ~impls ~dim_order =
  let dims = Array.of_list spec.dims in
  let base =
    Physical.OrderedScan
      {
        table = spec.group_table;
        alias = Some "G";
        order_cols = [ spec.score_col ];
        desc = true;
        pred = spec.group_pred;
        grouped = true;
      }
  in
  let fact_impl, dim_impls =
    match impls with
    | f :: rest -> (f, Array.of_list rest)
    | [] -> invalid_arg "Optimizer.et_plan: impls must cover the fact level"
  in
  let mk_dgj impl ~left ~table ~alias ~table_cols ~left_cols ~pred =
    match impl with
    | `I -> Physical.Idgj { left; table; alias; table_cols; left_cols; pred; residual = None }
    | `H -> Physical.Hdgj { left; table; alias; table_cols; left_cols; pred; residual = None }
  in
  let g_arity = Schema.arity (Table.schema (Catalog.find catalog spec.group_table)) in
  let key_pos = col_pos catalog spec.group_table spec.group_key in
  let fact_plan =
    mk_dgj fact_impl ~left:base ~table:spec.fact_table ~alias:(Some "F")
      ~table_cols:[ spec.fact_group_col ] ~left_cols:[| key_pos |] ~pred:None
  in
  let plan = ref fact_plan in
  List.iteri
    (fun level idx ->
      let d = dims.(idx) in
      let impl = dim_impls.(level) in
      let fact_col_pos = g_arity + col_pos catalog spec.fact_table d.fact_col in
      plan :=
        mk_dgj impl ~left:!plan ~table:d.dim_table ~alias:(Some d.dim_alias) ~table_cols:[ d.dim_key ]
          ~left_cols:[| fact_col_pos |] ~pred:d.dim_pred)
    dim_order;
  !plan

(* Calls [f] on every early-termination candidate in enumeration order:
   dimension orders outermost, each with its prepared cost terms. *)
let iter_et_candidates catalog spec f =
  let n = List.length spec.dims in
  let choices = impl_choices (n + 1) in
  let cards =
    match (spec.group_pred, spec.group_cards) with
    | None, Some cards -> cards
    | Some _, _ | None, None -> group_cards catalog spec
  in
  let pricer = et_pricer catalog spec ~cards in
  List.iter
    (fun dim_order ->
      let prepared, input_of = pricer ~dim_order in
      List.iter (fun impls -> f ~impls ~dim_order prepared (input_of ~impls)) choices)
    (permutations (List.init n Fun.id))

let et_candidates catalog spec =
  let out = ref [] in
  iter_et_candidates catalog spec (fun ~impls ~dim_order _ input ->
      out := ((impls, dim_order), input) :: !out);
  List.rev !out

let best_et_plan ?(check = false) catalog spec =
  let best = ref None in
  iter_et_candidates catalog spec (fun ~impls ~dim_order prepared input ->
      if check then Plan_check.check catalog (et_plan catalog spec ~impls ~dim_order);
      let cost = Dgj_cost.expected_cost ~prepared input in
      match !best with
      | Some (_, c) when c <= cost -> ()
      | Some _ | None -> best := Some ((impls, dim_order), cost));
  match !best with
  | None -> None
  | Some ((impls, dim_order), cost) ->
      let plan = et_plan catalog spec ~impls ~dim_order in
      if check then Plan_check.check catalog plan;
      Some (plan, cost)

let choose ?(check = false) catalog spec =
  let reg_plan, reg_cost = regular_plan ~check catalog spec in
  match best_et_plan ~check catalog spec with
  | None -> { plan = reg_plan; strategy = Regular; regular_cost = reg_cost; et_cost = infinity }
  | Some (et, et_cost) ->
      if et_cost < reg_cost then
        { plan = et; strategy = Early_termination; regular_cost = reg_cost; et_cost }
      else { plan = reg_plan; strategy = Regular; regular_cost = reg_cost; et_cost }

let run_topk catalog spec decision =
  match decision.strategy with
  | Regular ->
      List.map
        (fun tuple -> (Tuple.get tuple 0, Value.as_float (Tuple.get tuple 1)))
        (Physical.run catalog decision.plan)
  | Early_termination ->
      let it = Physical.lower catalog decision.plan in
      let witnesses = Op_dgj.first_match_per_group it ~k:spec.k in
      let key_pos = col_pos catalog spec.group_table spec.group_key in
      let score_pos = col_pos catalog spec.group_table spec.score_col in
      List.map
        (fun (_, tuple) -> (Tuple.get tuple key_pos, Value.as_float (Tuple.get tuple score_pos)))
        witnesses
