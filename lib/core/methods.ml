open Topo_sql

(* The nine evaluation methods of the experimental study (Section 6.1).
   This module owns the enum; [Engine] re-exports it so existing callers
   keep writing [Engine.Fast_top_k_opt]. *)
type method_ =
  | Sql
  | Full_top
  | Fast_top
  | Full_top_k
  | Fast_top_k
  | Full_top_k_et
  | Fast_top_k_et
  | Full_top_k_opt
  | Fast_top_k_opt

let all_methods =
  [
    Sql;
    Full_top;
    Fast_top;
    Full_top_k;
    Fast_top_k;
    Full_top_k_et;
    Fast_top_k_et;
    Full_top_k_opt;
    Fast_top_k_opt;
  ]

let method_name = function
  | Sql -> "SQL"
  | Full_top -> "Full-Top"
  | Fast_top -> "Fast-Top"
  | Full_top_k -> "Full-Top-k"
  | Fast_top_k -> "Fast-Top-k"
  | Full_top_k_et -> "Full-Top-k-ET"
  | Fast_top_k_et -> "Fast-Top-k-ET"
  | Full_top_k_opt -> "Full-Top-k-Opt"
  | Fast_top_k_opt -> "Fast-Top-k-Opt"

(* Non-top-k methods ignore the ranking scheme and k entirely; the
   serving tier's cache key normalizes on this. *)
let ranks = function
  | Sql | Full_top | Fast_top -> false
  | Full_top_k | Fast_top_k | Full_top_k_et | Fast_top_k_et | Full_top_k_opt | Fast_top_k_opt ->
      true

type aligned = {
  store : Store.t;
  ea : Query.endpoint;
  eb : Query.endpoint;
  a_ids : int array Lazy.t;
  b_ids : int array Lazy.t;
}

let align (ctx : Context.t) (q : Query.t) =
  Context.store_for ctx ~t1:q.Query.e1.Query.entity ~t2:q.Query.e2.Query.entity
  |> Option.map (fun (store, straight) ->
         let ea, eb = if straight then (q.Query.e1, q.Query.e2) else (q.Query.e2, q.Query.e1) in
         {
           store;
           ea;
           eb;
           a_ids = lazy (Context.satisfying_ids ctx ea);
           b_ids = lazy (Context.satisfying_ids ctx eb);
         })

(* Span helper: a no-op when no trace is threaded through. *)
let sp ?trace ?tags name f =
  match trace with None -> f () | Some t -> Topo_obs.Trace.with_span ?tags t name f

(* ------------------------------------------------------------------ *)
(* Plan builders                                                       *)

let scan_endpoint (e : Query.endpoint) alias =
  Physical.Scan { table = e.Query.entity; alias = Some alias; pred = e.Query.pred }

(* sigma(A) |x| fact |x| sigma(B) -> distinct TID.  Fact tables are
   (E1, E2, TID). *)
let tids_plan aligned ~fact =
  let join_a =
    Physical.HashJoin
      {
        left = Physical.Scan { table = fact; alias = Some "F"; pred = None };
        right = scan_endpoint aligned.ea "A";
        left_cols = [| 0 |];
        (* E1 *)
        right_cols = [| 0 |];
        (* ID *)
        residual = None;
      }
  in
  let join_b =
    Physical.HashJoin
      {
        left = join_a;
        right = scan_endpoint aligned.eb "B";
        left_cols = [| 1 |];
        (* E2 *)
        right_cols = [| 0 |];
        residual = None;
      }
  in
  Physical.Distinct (Physical.Project { input = join_b; cols = [ 2 ] })

let run_tids ?(check = false) ?trace ctx plan =
  if check then Plan_check.check ctx.Context.catalog plan;
  sp ?trace "execute" (fun () ->
      Physical.run ctx.Context.catalog plan
      |> List.map (fun tuple -> Value.as_int tuple.(0))
      |> List.sort Int.compare)

(* ------------------------------------------------------------------ *)
(* Pruned-topology base-data checks                                    *)

exception Found

(* A check walks every instance path of its first class from each start
   id, hit or miss: about (satisfying fraction) x (class instance paths)
   steps from either side.  So it starts from the side whose fraction
   |ids| / rows is smaller, E1 on a tie. *)
let pruned_walk_side (ctx : Context.t) aligned =
  let size ids = Array.length (Lazy.force ids)
  and rows (e : Query.endpoint) = Table.row_count (Catalog.find ctx.Context.catalog e.Query.entity) in
  (* |b_ids| / rows_b < |a_ids| / rows_a, in integers *)
  if size aligned.b_ids * rows aligned.ea < size aligned.a_ids * rows aligned.eb then `E2 else `E1

(* The bottom sub-query of SQL1: does a qualifying pair satisfy the pruned
   topology's path condition (under this derivation) without being
   excepted?  The first class is walked from [side]; the later classes and
   the ExcpTops test keep the (E1, E2) orientation. *)
let pruned_find_one (ctx : Context.t) aligned ~side (p : Topology.t) decomposition =
  match decomposition with
  | [] -> false
  | first :: others -> (
      let from_e2 = side = `E2 in
      let first = Context.class_walker ctx ~reverse:from_e2 first in
      let others = List.map (Context.class_walker ctx ~reverse:false) others in
      let starts, far = if from_e2 then (aligned.b_ids, aligned.a_ids) else (aligned.a_ids, aligned.b_ids) in
      let far = Lazy.force far in
      let checked = Hashtbl.create 16 in
      try
        Array.iter
          (fun source ->
            Hashtbl.clear checked;
            Context.iter_partners ctx first ~source ~f:(fun partner ->
                if not (Hashtbl.mem checked partner) then begin
                  Hashtbl.add checked partner ();
                  let a, b = if from_e2 then (partner, source) else (source, partner) in
                  if
                    Context.mem_id far partner
                    && List.for_all (fun w -> Context.connects ctx w ~a ~b) others
                    && not
                         (Store.is_excepted aligned.store ctx.Context.catalog ~a ~b ~tid:p.Topology.tid)
                  then raise Found
                end))
          (Lazy.force starts);
        false
      with Found -> true)

let pruned_check ctx aligned (p : Topology.t) =
  let side = pruned_walk_side ctx aligned in
  List.exists (pruned_find_one ctx aligned ~side p) (Atomic.get p.Topology.decompositions)

(* ------------------------------------------------------------------ *)
(* Non-top-k methods                                                   *)

(* The fact-table join: Full-Top over AllTops, Fast-Top's base over
   LeftTops. *)
let fact_tids ?check ?trace ctx aligned ~fact =
  let plan = sp ?trace "build_plan" ~tags:[ ("fact", fact) ] (fun () -> tids_plan aligned ~fact) in
  run_tids ?check ?trace ctx plan

let fast_top ?check ?trace ctx aligned =
  let base = fact_tids ?check ?trace ctx aligned ~fact:aligned.store.Store.lefttops in
  let extra =
    sp ?trace "pruned_checks"
      ~tags:[ ("pruned", string_of_int (List.length aligned.store.Store.pruned)) ]
      (fun () ->
        List.filter_map
          (fun (p : Topology.t) -> if pruned_check ctx aligned p then Some p.Topology.tid else None)
          aligned.store.Store.pruned)
  in
  List.sort_uniq compare (base @ extra)

let sql_method ?trace (ctx : Context.t) aligned =
  (* One existence probe per observed topology; every probe recomputes pair
     topologies from base data (no sharing between probes — the method's
     documented inefficiency).  It builds no physical plans, so there is
     nothing to verify. *)
  let store = aligned.store in
  let topinfo = Catalog.find ctx.Context.catalog store.Store.topinfo in
  let observed = ref [] in
  Table.iter (fun _ tuple -> observed := Value.as_int tuple.(0) :: !observed) topinfo;
  let a_ids = Lazy.force aligned.a_ids in
  let t1 = store.Store.t1 and t2 = store.Store.t2 in
  (* Recompute over the schema paths the build kept: a path filter
     (exclude_weak, min_reliability) drops classes no observed topology's
     decomposition holds.  Each sweep row registered its class keys as a
     decomposition of its topologies; keys other pairs registered name
     paths between other types, which the t1-t2 listing below drops. *)
  let kept = Hashtbl.create 32 in
  List.iter
    (fun tid ->
      List.iter
        (List.iter (fun key -> Hashtbl.replace kept key ()))
        (Atomic.get (Topology.find ctx.Context.registry tid).Topology.decompositions))
    !observed;
  let paths =
    List.filter
      (fun p -> Hashtbl.mem kept (Topo_graph.Schema_graph.path_key p))
      (Compute.schema_paths_between ctx.Context.schema ~t1 ~t2 ~l:ctx.Context.l)
  in
  let check tid =
    let p = Topology.find ctx.Context.registry tid in
    let first_classes =
      List.sort_uniq compare
        (List.filter_map
           (function c :: _ -> Some c | [] -> None)
           (Atomic.get p.Topology.decompositions))
    in
    let checked = Hashtbl.create 64 in
    try
      List.iter
        (fun first_class ->
          let walker = Context.class_walker ctx ~reverse:false first_class in
          Array.iter
            (fun a ->
              Context.iter_partners ctx walker ~source:a ~f:(fun b ->
                  if not (Hashtbl.mem checked (a, b)) then begin
                    Hashtbl.add checked (a, b) ();
                    if Context.mem_id (Lazy.force aligned.b_ids) b then begin
                      let keys, _ =
                        Compute.pair_topologies ctx.Context.dg ~paths ~same_type:(t1 = t2) ~a ~b
                          ~caps:ctx.Context.caps
                      in
                      if List.mem p.Topology.key keys then raise Found
                    end
                  end))
            a_ids)
        first_classes;
      false
    with Found -> true
  in
  sp ?trace "existence_probes"
    ~tags:[ ("observed", string_of_int (List.length !observed)) ]
    (fun () -> List.filter check (List.sort compare !observed))

(* ------------------------------------------------------------------ *)
(* Top-k machinery                                                     *)

let optimizer_spec aligned ~fact ~scheme ~k =
  {
    Optimizer.group_table = aligned.store.Store.topinfo;
    group_key = "TID";
    score_col = Ranking.score_column scheme;
    group_pred = None;
    fact_table = fact;
    fact_group_col = "TID";
    dims =
      [
        {
          Optimizer.dim_table = aligned.ea.Query.entity;
          dim_alias = "A";
          dim_key = "ID";
          fact_col = "E1";
          dim_pred = aligned.ea.Query.pred;
        };
        {
          Optimizer.dim_table = aligned.eb.Query.entity;
          dim_alias = "B";
          dim_key = "ID";
          fact_col = "E2";
          dim_pred = aligned.eb.Query.pred;
        };
      ];
    k;
    group_cards = Store.cards aligned.store ~fact scheme;
  }

let sort_desc results =
  List.sort
    (fun (ta, sa) (tb, sb) ->
      let c = Float.compare sb sa in
      if c <> 0 then c else Int.compare ta tb)
    results

(* One budget tick per early-termination step; no budget = never stop.
   Checked before pulling more work, so a budget that trips marks the
   evaluation [Partial] only when it actually cut the loop short. *)
let budget_stop = function Some b -> Budget.tick b | None -> false

(* Merge the stream of found topologies (descending score) with checks of
   pruned topologies, keeping global descending-score order, stopping at
   k results (or when the deadline budget trips — the results so far are
   the deterministic prefix of the full answer's merge order). *)
let merge_with_pruned ?trace ?budget ctx aligned ~scheme ~k ~next_witness =
  let pruned =
    List.map
      (fun (p : Topology.t) ->
        (p, Store.score_of aligned.store ctx.Context.catalog scheme p.Topology.tid))
      aligned.store.Store.pruned
    |> List.sort (fun (_, sa) (_, sb) -> Float.compare sb sa)
  in
  let results = ref [] in
  let count = ref 0 in
  let add tid score =
    results := (tid, score) :: !results;
    incr count
  in
  let check p = sp ?trace "pruned_checks" (fun () -> pruned_check ctx aligned p) in
  let rec loop pending pruned_left =
    if !count >= k then ()
    else if budget_stop budget then ()
    else begin
      let pending = match pending with Some _ -> pending | None -> next_witness () in
      match (pending, pruned_left) with
      | None, [] -> ()
      | Some (tid, score), ((p : Topology.t), pscore) :: rest when pscore > score ->
          if check p then add p.Topology.tid pscore;
          loop (Some (tid, score)) rest
      | Some (tid, score), _ ->
          add tid score;
          loop None pruned_left
      | None, (p, pscore) :: rest ->
          if check p then add p.Topology.tid pscore;
          loop None rest
    end
  in
  loop None pruned;
  sort_desc (List.rev !results)

(* Pull-based driver over a DGJ stack: yields one (tid, score) per group
   that produces a witness, in group (score) order. *)
let et_witness_stream ?(check = false) ?trace ctx aligned ~fact ~scheme ~impls =
  let spec = optimizer_spec aligned ~fact ~scheme ~k:max_int in
  let plan =
    sp ?trace "build_et_plan" ~tags:[ ("fact", fact) ] (fun () ->
        Optimizer.et_plan ctx.Context.catalog spec ~impls ~dim_order:[ 0; 1 ])
  in
  if check then Plan_check.check ctx.Context.catalog plan;
  let it =
    (if check then Physical.lower_checked else Physical.lower) ctx.Context.catalog plan
  in
  it.Iterator.open_ ();
  let topinfo_schema = Table.schema (Catalog.find ctx.Context.catalog aligned.store.Store.topinfo) in
  let tid_pos = Schema.index_of topinfo_schema "TID" in
  let score_pos = Schema.index_of topinfo_schema (Ranking.score_column scheme) in
  let finished = ref false in
  fun () ->
    if !finished then None
    else
      match it.Iterator.next () with
      | None ->
          finished := true;
          it.Iterator.close ();
          None
      | Some tuple ->
          (* One witness per group suffices; skip the rest. *)
          it.Iterator.advance_group ();
          Some (Value.as_int tuple.(tid_pos), Value.as_float tuple.(score_pos))

let default_impls = [ `I; `I; `I ]

let full_top_k_et ?check ?trace ?budget ctx aligned ~scheme ~k ?(impls = default_impls) () =
  let next =
    et_witness_stream ?check ?trace ctx aligned ~fact:aligned.store.Store.alltops ~scheme ~impls
  in
  sp ?trace "stream_witnesses" (fun () ->
      let results = ref [] in
      let rec take n =
        if n > 0 && not (budget_stop budget) then
          match next () with None -> () | Some r -> results := r :: !results; take (n - 1)
      in
      take k;
      sort_desc (List.rev !results))

let fast_top_k_et ?check ?trace ?budget ctx aligned ~scheme ~k ?(impls = default_impls) () =
  let next =
    et_witness_stream ?check ?trace ctx aligned ~fact:aligned.store.Store.lefttops ~scheme ~impls
  in
  sp ?trace "merge_with_pruned" (fun () ->
      merge_with_pruned ?trace ?budget ctx aligned ~scheme ~k ~next_witness:next)

(* [plan] is a regular plan already priced for this spec (-Opt's
   decision); without one the spec is optimized here. *)
let regular_topk ?(check = false) ?trace ?plan ctx aligned ~fact ~scheme ~k =
  let plan =
    match plan with
    | Some plan -> plan
    | None ->
        let spec = optimizer_spec aligned ~fact ~scheme ~k in
        fst
          (sp ?trace "optimize" ~tags:[ ("fact", fact) ] (fun () ->
               Optimizer.regular_plan ~check ctx.Context.catalog spec))
  in
  sp ?trace "execute" (fun () ->
      Physical.run ctx.Context.catalog plan
      |> List.map (fun tuple -> (Value.as_int tuple.(0), Value.as_float tuple.(1))))

let full_top_k ?check ?trace ?plan ctx aligned ~scheme ~k =
  regular_topk ?check ?trace ?plan ctx aligned ~fact:aligned.store.Store.alltops ~scheme ~k

let fast_top_k ?check ?trace ?plan ctx aligned ~scheme ~k =
  (* SQL4: top-k over LeftTops first; SQL5 checks for pruned topologies
     whose score could enter the result. *)
  let base =
    regular_topk ?check ?trace ?plan ctx aligned ~fact:aligned.store.Store.lefttops ~scheme ~k
  in
  let kth_score =
    if List.length base >= k then List.fold_left (fun acc (_, s) -> Float.min acc s) infinity base
    else neg_infinity
  in
  let candidates =
    List.filter_map
      (fun (p : Topology.t) ->
        let s = Store.score_of aligned.store ctx.Context.catalog scheme p.Topology.tid in
        if s > kth_score then Some (p, s) else None)
      aligned.store.Store.pruned
  in
  let extra =
    sp ?trace "pruned_checks"
      ~tags:[ ("candidates", string_of_int (List.length candidates)) ]
      (fun () ->
        List.filter_map
          (fun (p, s) -> if pruned_check ctx aligned p then Some (p.Topology.tid, s) else None)
          candidates)
  in
  let merged = sort_desc (base @ extra) in
  List.filteri (fun i _ -> i < k) merged

let strategy_name = function
  | Optimizer.Regular -> "regular"
  | Optimizer.Early_termination -> "early-termination"

let choose ~check ?trace ctx spec =
  let price () = Optimizer.choose ~check ctx.Context.catalog spec in
  match trace with
  | None -> price ()
  | Some t ->
      let span = Topo_obs.Trace.start t "choose" in
      let decision = Fun.protect ~finally:(fun () -> Topo_obs.Trace.finish t span) price in
      Topo_obs.Trace.add_tag span "strategy" (strategy_name decision.Optimizer.strategy);
      decision

(* Full-Top-k-Opt over AllTops, or with [~fast] Fast-Top-k-Opt over
   LeftTops.  A regular decision runs the plan [choose] priced. *)
let top_k_opt ~fast ~check ?trace ?budget ctx aligned ~scheme ~k =
  let fact = if fast then aligned.store.Store.lefttops else aligned.store.Store.alltops in
  let decision = choose ~check ?trace ctx (optimizer_spec aligned ~fact ~scheme ~k) in
  match decision.Optimizer.strategy with
  | Optimizer.Regular ->
      ( (if fast then fast_top_k else full_top_k)
          ~check ?trace ~plan:decision.Optimizer.plan ctx aligned ~scheme ~k,
        Optimizer.Regular )
  | Optimizer.Early_termination ->
      ( (if fast then fast_top_k_et else full_top_k_et) ~check ?trace ?budget ctx aligned ~scheme ~k (),
        Optimizer.Early_termination )

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let dispatch method_ ?(check = false) ?trace ?impls ?budget ctx aligned ~scheme ~k =
  let with_scores l = List.map (fun (tid, s) -> (tid, Some s)) l in
  let plain l = List.map (fun tid -> (tid, None)) l in
  match method_ with
  | Sql -> (plain (sql_method ?trace ctx aligned), None)
  | Full_top -> (plain (fact_tids ~check ?trace ctx aligned ~fact:aligned.store.Store.alltops), None)
  | Fast_top -> (plain (fast_top ~check ?trace ctx aligned), None)
  | Full_top_k -> (with_scores (full_top_k ~check ?trace ctx aligned ~scheme ~k), None)
  | Fast_top_k -> (with_scores (fast_top_k ~check ?trace ctx aligned ~scheme ~k), None)
  | Full_top_k_et ->
      (with_scores (full_top_k_et ~check ?trace ?budget ctx aligned ~scheme ~k ?impls ()), None)
  | Fast_top_k_et ->
      (with_scores (fast_top_k_et ~check ?trace ?budget ctx aligned ~scheme ~k ?impls ()), None)
  | Full_top_k_opt | Fast_top_k_opt ->
      let results, strategy =
        top_k_opt ~fast:(method_ = Fast_top_k_opt) ~check ?trace ?budget ctx aligned ~scheme ~k
      in
      (with_scores results, Some strategy)
