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
}

let rel_info catalog ~table ~alias ~pred =
  let t = Catalog.find catalog table in
  let stats = Catalog.stats catalog table in
  let sel =
    match pred with
    | None -> 1.0
    | Some p -> Table_stats.predicate_selectivity stats (Table.schema t) p
  in
  let base_rows = Table.row_count t in
  {
    table;
    alias;
    pred;
    base_rows;
    sel;
    out_rows = float_of_int base_rows *. sel;
    arity = Schema.arity (Table.schema t);
  }

let col_pos catalog table col = Schema.index_of (Table.schema (Catalog.find catalog table)) col

let join_sel catalog ~ltable ~lcol ~rtable ~rcol =
  let ls = Catalog.stats catalog ltable and rs = Catalog.stats catalog rtable in
  Table_stats.join_selectivity ~left:ls ~left_col:(col_pos catalog ltable lcol) ~right:rs
    ~right_col:(col_pos catalog rtable rcol)

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
  (* Join edge between rel a and rel b, as (col-in-a, col-in-b), if any. *)
  let edge a b =
    let named a b =
      if a = 0 && b = 1 then Some (spec.group_key, spec.fact_group_col)
      else if a = 1 && b >= 2 then Some (dims.(b - 2).fact_col, dims.(b - 2).dim_key)
      else None
    in
    match named a b with
    | Some e -> Some e
    | None -> ( match named b a with Some (x, y) -> Some (y, x) | None -> None)
  in
  let sel_between a b =
    match edge a b with
    | None -> 1.0
    | Some (ca, cb) ->
        join_sel catalog ~ltable:infos.(a).table ~lcol:ca ~rtable:infos.(b).table ~rcol:cb
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
    (* Find a join edge from r to some rel already in the prefix. *)
    let connected = List.filter_map (fun p -> match edge p r with Some e -> Some (p, e) | None -> None) state.order in
    match connected with
    | [] -> []
    | (p, (pcol, rcol)) :: _ ->
        let info = infos.(r) in
        let left_pos = offset_of state.order p + col_pos catalog infos.(p).table pcol in
        let rcol_pos = col_pos catalog info.table rcol in
        let s = sel_between p r in
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
                  table_cols = [ rcol ];
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
  (* Subset DP keyed by (bitmask, interesting order); keep the cheapest
     state per key — the System-R rule of retaining the least-cost plan for
     each interesting order. *)
  let best : (int * bool, dp_state) Hashtbl.t = Hashtbl.create 64 in
  let consider mask state =
    (* With [check] on, every candidate the DP prices must verify — a bad
       join-key offset computed by [extend] is a bug here, not downstream. *)
    if check then Plan_check.check catalog state.plan;
    let key = (mask, state.score_ordered) in
    match Hashtbl.find_opt best key with
    | Some s when s.cost <= state.cost -> ()
    | Some _ | None -> Hashtbl.replace best key state
  in
  for i = 0 to nrels - 1 do
    consider (1 lsl i) (scan i)
  done;
  consider 1 ordered_scan_g;
  let full = (1 lsl nrels) - 1 in
  for mask = 1 to full do
    List.iter
      (fun ordered ->
        match Hashtbl.find_opt best (mask, ordered) with
        | None -> ()
        | Some state ->
            for r = 0 to nrels - 1 do
              if mask land (1 lsl r) = 0 then
                List.iter (fun st -> consider (mask lor (1 lsl r)) st) (extend state r)
            done)
      [ false; true ]
  done;
  (* Finish either final state: project (group key, score), distinct, then
     a sort only when the interesting order was not preserved. *)
  let finish (final : dp_state) =
    let g_off = offset_of final.order 0 in
    let key_pos = g_off + col_pos catalog spec.group_table spec.group_key in
    let score_pos = g_off + col_pos catalog spec.group_table spec.score_col in
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
  let candidates =
    List.filter_map (fun ordered -> Hashtbl.find_opt best (full, ordered)) [ false; true ]
  in
  match candidates with
  | [] -> invalid_arg "Optimizer.regular_plan: join graph is disconnected"
  | first :: rest ->
      let best_final =
        List.fold_left
          (fun acc state ->
            let _, cost = finish state in
            let _, acc_cost = finish acc in
            if cost < acc_cost then state else acc)
          first rest
      in
      let plan, cost = finish best_final in
      if check then Plan_check.check catalog plan;
      (plan, cost)

(* ------------------------------------------------------------------ *)
(* Early-termination plans: grouped scan + DGJ stack                   *)

let group_cards catalog spec =
  (* Card_i per group, in descending score order, after the group
     predicate. *)
  let gt = Catalog.find catalog spec.group_table in
  let ft = Catalog.find catalog spec.fact_table in
  let sorted = Table.ensure_index gt ~kind:Index.Sorted ~cols:[ spec.score_col ] in
  let fact_idx = Table.ensure_index ft ~kind:Index.Hash ~cols:[ spec.fact_group_col ] in
  let key_pos = col_pos catalog spec.group_table spec.group_key in
  let rows = Index.ordered_rows ~desc:true sorted in
  let keep = Option.map (Row_filter.compile gt) spec.group_pred in
  let cards = Topo_util.Dyn.create () in
  Array.iter
    (fun rowno ->
      let tuple = Table.get gt rowno in
      let keep = match keep with None -> true | Some f -> f rowno tuple in
      if keep then Topo_util.Dyn.push cards (Index.probe_count fact_idx [| tuple.(key_pos) |]))
    rows;
  Topo_util.Dyn.to_array cards

let et_pricer catalog spec ~cards =
  (* Dimension statistics are independent of the order/implementation
     being costed; compute them once and close over them. *)
  let dims = Array.of_list spec.dims in
  let dim_stats =
    Array.map
      (fun d ->
        let info = rel_info catalog ~table:d.dim_table ~alias:d.dim_alias ~pred:d.dim_pred in
        let s =
          join_sel catalog ~ltable:spec.fact_table ~lcol:d.fact_col ~rtable:d.dim_table ~rcol:d.dim_key
        in
        (info, s))
      dims
  in
  let avg_card =
    let n = Array.length cards in
    if n = 0 then 1.0
    else Float.max 1.0 (float_of_int (Array.fold_left ( + ) 0 cards) /. float_of_int n)
  in
  let fact_rows = Table.row_count (Catalog.find catalog spec.fact_table) in
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
  let pricer = et_pricer catalog spec ~cards:(group_cards catalog spec) in
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
