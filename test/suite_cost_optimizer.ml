(* Deep tests of the cost model (Dgj_cost) and the optimizer: closed-form
   identities checked against brute force, monotonicity properties, and
   plan-choice consistency on randomized mini-databases. *)

open Topo_sql

(* --- Dgj_cost --------------------------------------------------------------- *)

let mk_level ?(n_inner = 100) ?(probe_cost = 1.0) ?(pred_sel = 0.5) ?(join_sel = 0.01) () =
  { Dgj_cost.n_inner; probe_cost; pred_sel; join_sel }

(* Brute-force S(h, q) = sum_{j=1}^{h} (j-1) q^{j-1} to validate the closed
   form via expected_cost identities on single-level stacks. *)
let brute_ec ~x ~delta ~probe ~h =
  (* EC(h) = sum_j x (1-x)^{j-1} [(j-1) delta + probe]  for one level. *)
  let acc = ref 0.0 in
  for j = 1 to h do
    acc := !acc +. (x *. ((1.0 -. x) ** float_of_int (j - 1)) *. ((float_of_int (j - 1) *. delta) +. probe))
  done;
  !acc

let test_single_level_ec_matches_brute_force () =
  List.iter
    (fun (sel, card) ->
      let level = mk_level ~pred_sel:sel () in
      let input = { Dgj_cost.cards = [| card |]; levels = [| level |]; k = 1; per_group_overhead = 0.0 } in
      let params = Dgj_cost.group_params input in
      let _, _, ec = params.(0) in
      (* With K = 1 inner match per tuple and one level, x1 = sel and
         delta1 = probe_cost. *)
      let expected = brute_ec ~x:sel ~delta:1.0 ~probe:1.0 ~h:card in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "sel=%.2f card=%d" sel card) expected ec)
    [ (0.5, 1); (0.5, 10); (0.1, 50); (0.9, 3); (0.25, 200) ]

let test_np_formula () =
  let level = mk_level ~pred_sel:0.3 () in
  let input = { Dgj_cost.cards = [| 7 |]; levels = [| level |]; k = 1; per_group_overhead = 0.0 } in
  let np, _, _ = (Dgj_cost.group_params input).(0) in
  Alcotest.(check (float 1e-9)) "np = (1-x1)^card" (Float.pow 0.7 7.0) np

let test_expected_cost_zero_cases () =
  let level = mk_level () in
  let zero_k = { Dgj_cost.cards = [| 5 |]; levels = [| level |]; k = 0; per_group_overhead = 1.0 } in
  Alcotest.(check (float 1e-9)) "k=0" 0.0 (Dgj_cost.expected_cost zero_k);
  let no_groups = { Dgj_cost.cards = [||]; levels = [| level |]; k = 3; per_group_overhead = 1.0 } in
  Alcotest.(check (float 1e-9)) "m=0" 0.0 (Dgj_cost.expected_cost no_groups)

let test_expected_groups_bounds () =
  let level = mk_level ~pred_sel:0.4 () in
  let input = { Dgj_cost.cards = Array.make 30 5; levels = [| level |]; k = 4; per_group_overhead = 0.0 } in
  let g = Dgj_cost.expected_groups_examined input in
  Alcotest.(check bool) (Printf.sprintf "k <= %g <= m" g) true (g >= 4.0 && g <= 30.0)

let test_overhead_linear () =
  let level = mk_level ~pred_sel:0.9 () in
  let input oh = { Dgj_cost.cards = Array.make 10 3; levels = [| level |]; k = 2; per_group_overhead = oh } in
  let c0 = Dgj_cost.expected_cost (input 0.0) in
  let c5 = Dgj_cost.expected_cost (input 5.0) in
  let groups = Dgj_cost.expected_groups_examined (input 0.0) in
  Alcotest.(check (float 1e-6)) "overhead scales with groups examined" (c0 +. (5.0 *. groups)) c5

let prop_cost_monotone_in_selectivity =
  QCheck.Test.make ~name:"cost decreases as predicates get less selective" ~count:100
    QCheck.(pair (float_range 0.05 0.45) (float_range 0.5 0.95))
    (fun (lo, hi) ->
      let cost sel =
        Dgj_cost.expected_cost
          {
            Dgj_cost.cards = Array.make 40 6;
            levels = [| mk_level ~pred_sel:sel () |];
            k = 5;
            per_group_overhead = 1.0;
          }
      in
      cost lo >= cost hi)

let prop_cost_monotone_in_k =
  QCheck.Test.make ~name:"cost increases with k" ~count:100
    QCheck.(pair (int_range 1 10) (int_range 11 30))
    (fun (k1, k2) ->
      let cost k =
        Dgj_cost.expected_cost
          {
            Dgj_cost.cards = Array.make 50 4;
            levels = [| mk_level ~pred_sel:0.3 () |];
            k;
            per_group_overhead = 1.0;
          }
      in
      cost k1 <= cost k2)

let test_hit_probability_two_levels_k1 () =
  (* K = 1 at both levels: x1 = rho1 * rho2 exactly. *)
  let levels = [| mk_level ~pred_sel:0.4 ~join_sel:0.005 (); mk_level ~pred_sel:0.7 ~join_sel:0.005 () |] in
  let x = Dgj_cost.hit_probabilities levels in
  Alcotest.(check (float 1e-9)) "x1" (0.4 *. 0.7) x.(0)

let test_hit_probability_fanout () =
  (* K = 4 matches, sel = 0.5: x = 1 - (1-0.5)^j summed over binomial;
     equals 1 - (1 - 0.5)^4 when x_{next} = 1 for all surviving tuples:
     prob at least one of 4 passes = 1 - 0.5^4. *)
  let levels = [| mk_level ~n_inner:400 ~pred_sel:0.5 ~join_sel:0.01 () |] in
  let x = Dgj_cost.hit_probabilities levels in
  Alcotest.(check (float 1e-9)) "1 - q^K" (1.0 -. (0.5 ** 4.0)) x.(0)

let test_probe_costs_accumulate () =
  let levels = [| mk_level ~probe_cost:2.0 ~pred_sel:0.5 ~join_sel:0.01 (); mk_level ~probe_cost:3.0 () |] in
  let delta = Dgj_cost.probe_costs levels in
  (* delta2 = 3; delta1 = 2 + 0.5 * K1 * delta2 with K1 = 1. *)
  Alcotest.(check (float 1e-9)) "delta2" 3.0 delta.(1);
  Alcotest.(check (float 1e-9)) "delta1" (2.0 +. (0.5 *. 1.0 *. 3.0)) delta.(0)

(* --- Optimizer on randomized mini-databases ---------------------------------- *)

let random_spec_db seed =
  let prng = Topo_util.Prng.create seed in
  let cat = Catalog.create () in
  let g =
    Catalog.create_table cat ~name:"G"
      ~schema:
        (Schema.make
           [ { Schema.name = "TID"; ty = Schema.TInt }; { Schema.name = "score"; ty = Schema.TFloat } ])
      ~primary_key:"TID" ()
  in
  let f =
    Catalog.create_table cat ~name:"F"
      ~schema:
        (Schema.make [ { Schema.name = "TID"; ty = Schema.TInt }; { Schema.name = "E"; ty = Schema.TInt } ])
      ()
  in
  let d =
    Catalog.create_table cat ~name:"D"
      ~schema:
        (Schema.make [ { Schema.name = "ID"; ty = Schema.TInt }; { Schema.name = "v"; ty = Schema.TInt } ])
      ~primary_key:"ID" ()
  in
  let n_groups = Topo_util.Prng.int_in_range prng ~lo:3 ~hi:25 in
  let next_e = ref 1000 in
  for tid = 1 to n_groups do
    (* Distinct scores so every method agrees on order. *)
    Table.insert_values g [ Value.Int tid; Value.Float (float_of_int (tid * 10) +. Topo_util.Prng.float prng) ];
    let members = Topo_util.Prng.int_in_range prng ~lo:0 ~hi:12 in
    for _ = 1 to members do
      let e = !next_e in
      incr next_e;
      Table.insert_values f [ Value.Int tid; Value.Int e ];
      Table.insert_values d [ Value.Int e; Value.Int (Topo_util.Prng.int prng 4) ]
    done
  done;
  cat

let spec_for k =
  {
    Optimizer.group_table = "G";
    group_key = "TID";
    score_col = "score";
    group_pred = None;
    fact_table = "F";
    fact_group_col = "TID";
    dims =
      [
        {
          Optimizer.dim_table = "D";
          dim_alias = "D1";
          dim_key = "ID";
          fact_col = "E";
          dim_pred = Some (Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (Value.Int 0)));
        };
      ];
    k;
    group_cards = None;
  }

let naive_topk cat k =
  (* Reference evaluation: for each group (by descending score), check if
     any member joins a v=0 dimension row. *)
  let g = Catalog.find cat "G" and f = Catalog.find cat "F" and d = Catalog.find cat "D" in
  let groups = ref [] in
  Table.iter
    (fun _ t -> groups := (Value.as_int t.(0), Value.as_float t.(1)) :: !groups)
    g;
  let groups = List.sort (fun (_, a) (_, b) -> Float.compare b a) !groups in
  let qualifies tid =
    let found = ref false in
    Table.iter
      (fun _ t ->
        if Value.as_int t.(0) = tid then
          match Table.find_by_pk d t.(1) with
          | Some dt -> if Value.as_int dt.(1) = 0 then found := true
          | None -> ())
      f;
    !found
  in
  List.filter (fun (tid, _) -> qualifies tid) groups |> List.filteri (fun i _ -> i < k)

let prop_optimizer_strategies_agree =
  QCheck.Test.make ~name:"regular/ET/naive top-k agree on random databases" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 1 8))
    (fun (seed, k) ->
      let cat = random_spec_db seed in
      let spec = spec_for k in
      let expected = naive_topk cat k in
      let reg_plan, _ = Optimizer.regular_plan cat spec in
      let reg =
        Physical.run cat reg_plan
        |> List.map (fun t -> (Value.as_int t.(0), Value.as_float t.(1)))
      in
      let et =
        match Optimizer.best_et_plan cat spec with
        | Some (plan, _) ->
            let decision =
              { Optimizer.plan; strategy = Optimizer.Early_termination; regular_cost = 0.0; et_cost = 0.0 }
            in
            Optimizer.run_topk cat spec decision
            |> List.map (fun (v, s) -> (Value.as_int v, s))
        | None -> []
      in
      reg = expected && et = expected)

let test_choose_reports_both_costs () =
  let cat = random_spec_db 99 in
  let d = Optimizer.choose cat (spec_for 3) in
  Alcotest.(check bool) "finite costs" true
    (Float.is_finite d.Optimizer.regular_cost && Float.is_finite d.Optimizer.et_cost);
  Alcotest.(check bool) "explain non-empty" true
    (String.length (Physical.explain d.Optimizer.plan) > 0)

(* --- pricing: prepared form against the model as first written ------------- *)

(* The oracle: Theorem 4's EC re-evaluated from scratch for every input,
   and Theorem 1's DP over the full (m+1) x (k+1) matrix. *)
let naive_matches (level : Dgj_cost.level) =
  let k = level.Dgj_cost.join_sel *. float_of_int level.Dgj_cost.n_inner in
  if k < 1.0 then 1.0 else Float.round k

let naive_failure_weight h q =
  let hf = float_of_int h in
  if q >= 1.0 -. 1e-12 then hf *. (hf -. 1.0) /. 2.0
  else if q <= 0.0 then 0.0
  else
    let qh1 = Float.pow q (hf -. 1.0) in
    let qh = qh1 *. q in
    q *. (1.0 -. (hf *. qh1) +. ((hf -. 1.0) *. qh)) /. ((1.0 -. q) *. (1.0 -. q))

let naive_group_params (input : Dgj_cost.input) =
  let levels = input.Dgj_cost.levels in
  let n = Array.length levels in
  let x = Dgj_cost.hit_probabilities levels and delta = Dgj_cost.probe_costs levels in
  let upper = Array.make n 0.0 in
  let ec_at l h =
    if n = 0 then 0.0
    else
      let q = 1.0 -. x.(l) in
      ((1.0 -. Float.pow q (float_of_int h)) *. (levels.(l).Dgj_cost.probe_cost +. upper.(l)))
      +. (x.(l) *. delta.(l) *. naive_failure_weight h q)
  in
  for l = n - 1 downto 0 do
    if l = n - 1 then upper.(l) <- 0.0
    else upper.(l) <- ec_at (l + 1) (int_of_float (naive_matches levels.(l)))
  done;
  let x1 = if n = 0 then 1.0 else x.(0) and delta1 = if n = 0 then 0.0 else delta.(0) in
  Array.map
    (fun card ->
      let cardf = float_of_int card in
      let np = Float.pow (1.0 -. x1) cardf in
      let nc = np *. cardf *. delta1 in
      let ec = if n = 0 then 0.0 else ec_at 0 card in
      (np, nc +. input.Dgj_cost.per_group_overhead, ec))
    input.Dgj_cost.cards

let naive_dp (input : Dgj_cost.input) cell =
  let params = naive_group_params input in
  let m = Array.length params and k = input.Dgj_cost.k in
  let dp = Array.make_matrix (m + 1) (k + 1) 0.0 in
  for l = m - 1 downto 0 do
    for k' = 1 to k do
      dp.(l).(k') <- cell params.(l) ~hit:dp.(l + 1).(k' - 1) ~miss:dp.(l + 1).(k')
    done
  done;
  if m = 0 || k = 0 then 0.0 else dp.(0).(k)

let naive_expected_cost input =
  naive_dp input (fun (np, nc, ec) ~hit ~miss -> ec +. ((1.0 -. np) *. hit) +. nc +. (np *. miss))

let naive_groups_examined input =
  naive_dp input (fun (np, _, _) ~hit ~miss -> 1.0 +. ((1.0 -. np) *. hit) +. (np *. miss))

let bits = Int64.bits_of_float

(* K = round(join_sel * n_inner) in 1..4; rho in {0, 1} or in between;
   cards with repeats and zeros; m = 0 possible; k in {0, 1, m-1, m, m+5}. *)
let gen_cost_input =
  let open QCheck.Gen in
  let level =
    map4
      (fun n_inner kk probe_cost pred_sel ->
        { Dgj_cost.n_inner; probe_cost; pred_sel; join_sel = float_of_int kk /. float_of_int n_inner })
      (int_range 4 2000) (int_range 1 4) (float_range 0.1 50.0)
      (frequency [ (1, return 0.0); (1, return 1.0); (3, float_range 0.0 1.0) ])
  in
  array_size (int_range 0 3) level >>= fun levels ->
  array_size (int_range 0 40) (oneof [ oneofl [ 0; 1; 2; 2; 7; 7 ]; int_range 0 60 ]) >>= fun cards ->
  let m = Array.length cards in
  oneofl [ 0; 1; max 0 (m - 1); m; m + 5 ] >>= fun k ->
  float_range 0.0 500.0 >|= fun per_group_overhead -> { Dgj_cost.cards; levels; k; per_group_overhead }

let print_cost_input (i : Dgj_cost.input) =
  Printf.sprintf "levels [%s] cards [%s] k=%d overhead=%h"
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (l : Dgj_cost.level) ->
               Printf.sprintf "{n=%d probe=%h rho=%h s=%h}" l.Dgj_cost.n_inner l.Dgj_cost.probe_cost
                 l.Dgj_cost.pred_sel l.Dgj_cost.join_sel)
             i.Dgj_cost.levels)))
    (String.concat "; " (Array.to_list (Array.map string_of_int i.Dgj_cost.cards)))
    i.Dgj_cost.k i.Dgj_cost.per_group_overhead

let prop_pricing_bit_identical =
  QCheck.Test.make ~name:"prepared pricing = naive Theorem-1 DP, bit for bit" ~count:500
    (QCheck.make ~print:print_cost_input gen_cost_input)
    (fun input ->
      (* Prepared from levels that differ only in probe costs, as the
         optimizer shares one preparation across IDGJ/HDGJ choices. *)
      let other_probes =
        Array.map (fun (l : Dgj_cost.level) -> { l with Dgj_cost.probe_cost = 1.0 }) input.Dgj_cost.levels
      in
      let prepared = Dgj_cost.prepare ~cards:input.Dgj_cost.cards other_probes in
      let same what a b =
        bits a = bits b || QCheck.Test.fail_reportf "%s: %h <> naive %h" what a b
      in
      let cost = naive_expected_cost input and groups = naive_groups_examined input in
      same "expected_cost" (Dgj_cost.expected_cost input) cost
      && same "expected_cost ~prepared" (Dgj_cost.expected_cost ~prepared input) cost
      && same "expected_groups_examined" (Dgj_cost.expected_groups_examined ~prepared input) groups
      && Array.for_all2
           (fun (a, b, c) (a', b', c') -> same "np" a a' && same "nc" b b' && same "ec" c c')
           (Dgj_cost.group_params ~prepared input)
           (naive_group_params input))

let test_prepared_for_other_statistics_rejected () =
  let level = mk_level () in
  let cards = [| 3; 4 |] in
  let prepared = Dgj_cost.prepare ~cards [| level |] in
  let input levels cards = { Dgj_cost.cards; levels; k = 1; per_group_overhead = 0.0 } in
  Alcotest.check_raises "other selectivity"
    (Invalid_argument "Dgj_cost: prepared for other cards or level statistics") (fun () ->
      ignore (Dgj_cost.expected_cost ~prepared (input [| { level with Dgj_cost.pred_sel = 0.25 } |] cards)));
  Alcotest.check_raises "other cards"
    (Invalid_argument "Dgj_cost: prepared for other cards or level statistics") (fun () ->
      ignore (Dgj_cost.expected_cost ~prepared (input [| level |] (Array.copy cards))))

(* --- pricing on a built engine ------------------------------------------------ *)

let pricing_engine =
  lazy
    (let open Topo_core in
     let cat = Biozon.Generator.generate (Biozon.Generator.scale 0.05 Biozon.Generator.default) in
     (cat, Engine.build cat ~pairs:[ ("Protein", "DNA"); ("Protein", "Interaction") ] ~pruning_threshold:3 ()))

(* The spec the -Opt methods price, for a query phrased in the store's
   orientation. *)
let engine_spec (q : Topo_core.Query.t) ~fact ~scheme ~k =
  let open Topo_core in
  let _, engine = Lazy.force pricing_engine in
  let store = Engine.store engine ~t1:q.Query.e1.Query.entity ~t2:q.Query.e2.Query.entity in
  let dim (e : Query.endpoint) alias fact_col =
    { Optimizer.dim_table = e.Query.entity; dim_alias = alias; dim_key = "ID"; fact_col; dim_pred = e.Query.pred }
  in
  {
    Optimizer.group_table = store.Store.topinfo;
    group_key = "TID";
    score_col = Ranking.score_column scheme;
    group_pred = None;
    fact_table = (if fact then store.Store.lefttops else store.Store.alltops);
    fact_group_col = "TID";
    dims = [ dim q.Query.e1 "A" "E1"; dim q.Query.e2 "B" "E2" ];
    k;
    group_cards = Store.cards store ~fact:(if fact then store.Store.lefttops else store.Store.alltops) scheme;
  }

let gen_engine_spec =
  let open QCheck.Gen in
  let cat = fst (Lazy.force pricing_engine) in
  let endpoint entity =
    oneofl
      ([ Topo_core.Query.endpoint cat entity ]
      @ List.map
          (fun kw -> Topo_core.Query.keyword cat entity ~col:"desc" ~kw)
          [ "membrane"; "zinc"; "putative"; "nonexistentword" ])
  in
  oneofl [ "DNA"; "Interaction" ] >>= fun t2 ->
  map2 Topo_core.Query.make (endpoint "Protein") (endpoint t2) >>= fun q ->
  bool >>= fun fact ->
  oneofl Topo_core.Ranking.[ Freq; Rare; Domain ] >>= fun scheme ->
  oneofl [ 1; 5; 10; 20; 1000 ] >|= fun k -> (q, engine_spec q ~fact ~scheme ~k)

let prop_best_et_plan_matches_exhaustive =
  QCheck.Test.make ~name:"best_et_plan = exhaustive naive pricing of all 16 candidates" ~count:60
    (QCheck.make ~print:(fun (q, _) -> Topo_core.Query.to_string q) gen_engine_spec)
    (fun (_, spec) ->
      let cat = fst (Lazy.force pricing_engine) in
      let candidates = Optimizer.et_candidates cat spec in
      let naive_best =
        List.fold_left
          (fun best (plan, input) ->
            let cost = naive_expected_cost input in
            match best with Some (_, c) when c <= cost -> best | Some _ | None -> Some (plan, cost))
          None candidates
      in
      List.length candidates = 16
      &&
      match (Optimizer.best_et_plan cat spec, naive_best) with
      | Some (plan, cost), Some ((impls, dim_order), naive_cost) ->
          Physical.explain plan = Physical.explain (Optimizer.et_plan cat spec ~impls ~dim_order)
          && (bits cost = bits naive_cost || QCheck.Test.fail_reportf "cost %h, naive %h" cost naive_cost)
      | None, None -> true
      | Some _, None | None, Some _ -> false)

(* The largest k a wire request carries is 2^31 - 1 (the codec rejects a
   u32 with the top bit set as negative).  Pricing clamps k to the group
   count, so such a request costs what k = |TopInfo| costs. *)
let test_huge_k_prices_in_constant_space () =
  let open Topo_core in
  let cat, engine = Lazy.force pricing_engine in
  let q = Query.make (Query.endpoint cat "Protein") (Query.endpoint cat "DNA") in
  let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
  let groups = Table.row_count (Catalog.find cat store.Store.topinfo) in
  let huge = 0x7FFF_FFFF in
  let decoded =
    let frame = Wire.frame ~kind:Wire.kind_batch_request (Request.batch_payload [ Request.make ~k:huge Engine.Fast_top_k_opt q ]) in
    match Request.read_batch (Wire.decode_frame frame) with
    | [ r ] -> r
    | _ -> Alcotest.fail "not a batch of one"
  in
  Alcotest.(check int) "k survives the wire" huge decoded.Request.k;
  let ranked r = (Request.get_done (Engine.run_request engine r)).Request.ranked in
  Alcotest.(check (list (pair int (option (float 0.0)))))
    "same ranked list as k = |TopInfo|"
    (ranked (Request.make ~k:groups Engine.Fast_top_k_opt q))
    (ranked decoded);
  let spec = engine_spec q ~fact:true ~scheme:Ranking.Freq ~k:huge in
  ignore (Optimizer.choose cat spec);
  let before = Gc.allocated_bytes () in
  let decision = Optimizer.choose cat spec in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  Alcotest.(check bool) (Printf.sprintf "pricing allocates %.0f words < 1M" words) true (words < 1e6);
  Alcotest.(check bool) "same costs as k = |TopInfo|" true
    (let d = Optimizer.choose cat { spec with Optimizer.k = groups } in
     bits d.Optimizer.et_cost = bits decision.Optimizer.et_cost)

(* Every plan and cost the optimizer produces for one fixed generated
   instance, folded into one digest: each (pair, endpoint pair, fact
   table, scheme, k) spec is priced by [regular_plan], [best_et_plan] and
   [choose], with costs printed bit-exactly ([%h]).  A change to how the
   optimizer derives its statistics must leave this digest as it is,
   whether the spec carries its store's Card_i or pricing derives them. *)
let optimizer_golden_digest = "38fb6953ce8bb6fee228bf87e6def48d"

let optimizer_digest ~store_cards =
  let open Topo_core in
  let cat = fst (Lazy.force pricing_engine) in
  let endpoints entity =
    Query.endpoint cat entity
    :: List.map (fun kw -> Query.keyword cat entity ~col:"desc" ~kw) [ "membrane"; "zinc"; "putative"; "nonexistentword" ]
  in
  let buf = Buffer.create (1 lsl 16) in
  let cost c = Printf.bprintf buf "%h;" c in
  let plan p = Printf.bprintf buf "%s;" (Physical.explain p) in
  List.iter
    (fun t2 ->
      List.iter
        (fun e1 ->
          List.iter
            (fun e2 ->
              let q = Query.make e1 e2 in
              List.iter
                (fun fact ->
                  List.iter
                    (fun scheme ->
                      List.iter
                        (fun k ->
                          let spec = engine_spec q ~fact ~scheme ~k in
                          let spec = if store_cards then spec else { spec with Optimizer.group_cards = None } in
                          Printf.bprintf buf "%s|%b|%s|%d:" (Query.to_string q) fact (Ranking.name scheme) k;
                          let p, c = Optimizer.regular_plan cat spec in
                          plan p;
                          cost c;
                          (match Optimizer.best_et_plan cat spec with
                          | None -> Buffer.add_string buf "none;"
                          | Some (p, c) ->
                              plan p;
                              cost c);
                          let d = Optimizer.choose cat spec in
                          Buffer.add_string buf
                            (match d.Optimizer.strategy with Optimizer.Regular -> "R;" | Optimizer.Early_termination -> "ET;");
                          plan d.Optimizer.plan;
                          cost d.Optimizer.regular_cost;
                          cost d.Optimizer.et_cost;
                          Buffer.add_char buf '\n')
                        [ 1; 5; 10; 20; 1000 ])
                    Ranking.[ Freq; Rare; Domain ])
                [ false; true ])
            (endpoints t2))
        (endpoints "Protein"))
    [ "DNA"; "Interaction" ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_optimizer_golden () =
  Alcotest.(check string) "store's cards" optimizer_golden_digest (optimizer_digest ~store_cards:true);
  Alcotest.(check string) "cards derived per call" optimizer_golden_digest (optimizer_digest ~store_cards:false)

(* --- histogram corner cases --------------------------------------------------- *)

let test_histogram_range_outside () =
  let h = Histogram.build (Array.init 50 (fun i -> Value.Int i)) in
  Alcotest.(check (float 1e-9)) "above max" 0.0 (Histogram.selectivity_range h ~lo:(Value.Int 100) ());
  Alcotest.(check (float 1e-9)) "below min" 0.0 (Histogram.selectivity_range h ~hi:(Value.Int (-1)) ());
  Alcotest.(check (float 0.01)) "full" 1.0 (Histogram.selectivity_range h ());
  Alcotest.(check (float 1e-9)) "missing eq" 0.0 (Histogram.selectivity_eq h (Value.Int 999))

let test_histogram_heavy_hitter_exact () =
  (* 900 copies of 1 and 100 distinct others: MCV tracking must make the
     heavy hitter's selectivity exact. *)
  let values = Array.init 1000 (fun i -> Value.Int (if i < 900 then 1 else i)) in
  let h = Histogram.build values in
  Alcotest.(check (float 1e-9)) "heavy hitter" 0.9 (Histogram.selectivity_eq h (Value.Int 1))

let test_histogram_min_max () =
  let h = Histogram.build [| Value.Int 5; Value.Int 2; Value.Int 9 |] in
  Alcotest.(check bool) "min" true (Histogram.min_value h = Some (Value.Int 2));
  Alcotest.(check bool) "max" true (Histogram.max_value h = Some (Value.Int 9))

let prop_predicate_selectivity_bounded =
  QCheck.Test.make ~name:"predicate selectivity stays in [0,1]" ~count:200
    QCheck.(triple (int_range 0 1000) (int_range 0 20) (int_range 0 3))
    (fun (seed, c, shape) ->
      let prng = Topo_util.Prng.create seed in
      let cat = Catalog.create () in
      let t =
        Catalog.create_table cat ~name:"X"
          ~schema:(Schema.make [ { Schema.name = "a"; ty = Schema.TInt } ])
          ()
      in
      for _ = 1 to 50 do
        Table.insert_values t [ Value.Int (Topo_util.Prng.int prng 10) ]
      done;
      let stats = Catalog.stats cat "X" in
      let base = Expr.Cmp (Expr.Le, Expr.Col 0, Expr.Const (Value.Int c)) in
      let expr =
        match shape with
        | 0 -> base
        | 1 -> Expr.Not base
        | 2 -> Expr.And [ base; Expr.Cmp (Expr.Ge, Expr.Col 0, Expr.Const (Value.Int 2)) ]
        | _ -> Expr.Or [ base; Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Const (Value.Int 0)) ]
      in
      let s = Table_stats.predicate_selectivity stats (Table.schema t) expr in
      s >= 0.0 && s <= 1.0)

let suites =
  [
    ( "cost.model",
      [
        Alcotest.test_case "EC matches brute force" `Quick test_single_level_ec_matches_brute_force;
        Alcotest.test_case "np formula" `Quick test_np_formula;
        Alcotest.test_case "zero cases" `Quick test_expected_cost_zero_cases;
        Alcotest.test_case "groups-examined bounds" `Quick test_expected_groups_bounds;
        Alcotest.test_case "overhead linear" `Quick test_overhead_linear;
        Alcotest.test_case "x1 two levels" `Quick test_hit_probability_two_levels_k1;
        Alcotest.test_case "x1 fanout" `Quick test_hit_probability_fanout;
        Alcotest.test_case "probe costs accumulate" `Quick test_probe_costs_accumulate;
        QCheck_alcotest.to_alcotest prop_cost_monotone_in_selectivity;
        QCheck_alcotest.to_alcotest prop_cost_monotone_in_k;
      ] );
    ( "cost.optimizer",
      [
        QCheck_alcotest.to_alcotest prop_optimizer_strategies_agree;
        Alcotest.test_case "choose reports costs" `Quick test_choose_reports_both_costs;
        QCheck_alcotest.to_alcotest prop_pricing_bit_identical;
        Alcotest.test_case "prepared terms are checked" `Quick test_prepared_for_other_statistics_rejected;
        QCheck_alcotest.to_alcotest prop_best_et_plan_matches_exhaustive;
        Alcotest.test_case "huge k prices in constant space" `Quick test_huge_k_prices_in_constant_space;
      ] );
    ( "cost.histogram",
      [
        Alcotest.test_case "ranges outside domain" `Quick test_histogram_range_outside;
        Alcotest.test_case "heavy hitter exact" `Quick test_histogram_heavy_hitter_exact;
        Alcotest.test_case "min/max" `Quick test_histogram_min_max;
        QCheck_alcotest.to_alcotest prop_predicate_selectivity_bounded;
      ] );
    ("cost.golden", [ Alcotest.test_case "optimizer plans and costs pinned" `Quick test_optimizer_golden ]);
  ]
