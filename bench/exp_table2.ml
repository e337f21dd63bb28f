(* Table 2 — performance of all nine strategies on Protein-Interaction
   queries across a 3x3 predicate-selectivity grid and three ranking
   schemes, top-10.

   Paper shapes that must hold here:
   - SQL is orders of magnitude slower than everything else.
   - Fast-Top beats Full-Top for medium/unselective predicates; Full-Top
     wins for selective ones (pruned-topology checks dominate).
   - *-ET wins for unselective predicates and loses for selective ones
     (DGJ overhead), with Rare ranking the best ET case.
   - *-Opt tracks the better of the two regimes.

   The selective/selective ET cell also reports the best and worst DGJ
   implementation choice, like the paper's "9.65/2467" entry. *)

open Bench_common

let topk_methods =
  [
    Engine.Full_top_k;
    Engine.Fast_top_k;
    Engine.Full_top_k_et;
    Engine.Fast_top_k_et;
    Engine.Full_top_k_opt;
    Engine.Fast_top_k_opt;
  ]

let run () =
  Topo_util.Console.section
    "Table 2 — performance of the nine strategies (ms), Protein-Interaction, top-10";
  let engine, _ = engine_l3 () in
  let cat = engine.Engine.ctx.Topo_core.Context.catalog in
  let k = 10 in
  List.iter
    (fun (psel, pname) ->
      Printf.printf "\n--- protein predicate: %s ---\n" pname;
      let header =
        "method"
        :: List.concat_map
             (fun (_, iname) -> List.map (fun s -> iname ^ "/" ^ Ranking.name s) Ranking.all)
             selectivities
      in
      (* Non-top-k methods: one timing per column group (they ignore the
         ranking scheme; the paper's per-ranking values differ only by
         noise). *)
      let non_topk =
        List.filter_map
          (fun m ->
            if m = Engine.Sql && config.skip_sql then None
            else if m = Engine.Sql || m = Engine.Full_top || m = Engine.Fast_top then
              Some
                (Engine.method_name m
                 :: List.concat_map
                      (fun (isel, _) ->
                        let q = grid_query cat ~protein_sel:psel ~interaction_sel:isel in
                        let runs = if m = Engine.Sql then 1 else config.runs in
                        let t = time_method ~runs engine q ~method_:m ~scheme:Ranking.Freq ~k in
                        let cell = ms t in
                        [ cell; cell; cell ])
                      selectivities)
            else None)
          [ Engine.Sql; Engine.Full_top; Engine.Fast_top ]
      in
      let topk =
        List.map
          (fun m ->
            Engine.method_name m
            :: List.concat_map
                 (fun (isel, _) ->
                   let q = grid_query cat ~protein_sel:psel ~interaction_sel:isel in
                   List.map
                     (fun scheme ->
                       let t = time_method engine q ~method_:m ~scheme ~k in
                       if
                         (m = Engine.Fast_top_k_et || m = Engine.Full_top_k_et)
                         && psel = `Selective && isel = `Selective && scheme = Ranking.Freq
                       then begin
                         (* best / worst DGJ implementation choice. *)
                         let t_h =
                           let _, median =
                             Topo_util.Timer.repeat_median ~runs:config.runs (fun () ->
                                 let ctx = engine.Engine.ctx in
                                 Topo_core.Methods.dispatch m ~impls:[ `I; `H; `H ] ctx
                                   (Option.get (Topo_core.Methods.align ctx q)) ~scheme ~k)
                           in
                           median *. 1000.0
                         in
                         Printf.sprintf "%s/%s" (ms (Float.min t t_h)) (ms (Float.max t t_h))
                       end
                       else ms t)
                     Ranking.all)
                 selectivities)
          topk_methods
      in
      Console.print ~header (non_topk @ topk))
    selectivities;
  (* Optimizer choices, reported once for the diagonal. *)
  Printf.printf "\noptimizer decisions (Fast-Top-k-Opt), diagonal cells:\n";
  List.iter
    (fun (sel, name) ->
      let q = grid_query cat ~protein_sel:sel ~interaction_sel:sel in
      List.iter
        (fun scheme ->
          let r =
            Request.get_done
              (Engine.run_request engine (Request.make ~scheme ~k Engine.Fast_top_k_opt q))
          in
          let choice =
            match r.Request.strategy with
            | Some Topo_sql.Optimizer.Regular -> "regular (Fast-Top-k)"
            | Some Topo_sql.Optimizer.Early_termination -> "DGJ stack (Fast-Top-k-ET)"
            | None -> "?"
          in
          Printf.printf "  %-12s %-7s -> %s\n" name (Ranking.name scheme) choice)
        Ranking.all)
    selectivities
