(* Ablations over the design choices DESIGN.md calls out:

   1. Pruning threshold (Section 4.2.2 "we set an appropriate pruning
      threshold"): sweep the threshold and report the space / query-time
      tradeoff the paper studied to pick 2M.
   2. Representative caps (our substitution for the paper's unbounded —
      day-long — computation): sweep max_reps_per_class and show the
      effect on the observed topology count, confirming the default caps
      lose nothing at benchmark scale.
   3. DGJ implementation choice (IDGJ vs HDGJ per level): the measured
      grid behind the optimizer's Section 5.4 decision. *)

open Bench_common

let threshold_sweep () =
  print_endline "--- ablation 1: pruning threshold (Protein-Interaction, l=3) ---";
  (* A private catalog: rebuilding the derived tables would otherwise
     invalidate the memoized engines other experiments share. *)
  let cat = Biozon.Generator.generate (params ()) in
  let q = grid_query cat ~protein_sel:`Medium ~interaction_sel:`Medium in
  let rows =
    List.map
      (fun threshold ->
        let engine =
          Engine.build cat ~pairs:[ ("Protein", "Interaction") ] ~l:3 ~pruning_threshold:threshold ()
        in
        let store = Engine.store engine ~t1:"Protein" ~t2:"Interaction" in
        let alltops, lefttops, excptops = Store.space store engine.Engine.ctx.Topo_core.Context.catalog in
        let t_fast = time_method engine q ~method_:Engine.Fast_top ~scheme:Ranking.Freq ~k:10 in
        let t_fastk = time_method engine q ~method_:Engine.Fast_top_k ~scheme:Ranking.Freq ~k:10 in
        [
          string_of_int threshold;
          string_of_int (List.length store.Store.pruned);
          Pretty.bytes_cell (lefttops + excptops);
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int (lefttops + excptops) /. float_of_int (max 1 alltops));
          ms t_fast;
          ms t_fastk;
        ])
      [ 5; 20; 50; 200; 1000; max_int ]
  in
  Console.print
    ~header:[ "threshold"; "pruned"; "Left+Excp"; "space ratio"; "Fast-Top ms"; "Fast-Top-k ms" ]
    rows;
  print_endline "(threshold = max_int disables pruning: Fast-Top degenerates to Full-Top)"

let caps_sweep () =
  print_endline "\n--- ablation 2: representative caps (Protein-DNA, l=3) ---";
  let cat = Biozon.Generator.generate (params ()) in
  let rows =
    List.map
      (fun reps ->
        let caps = { Topo_core.Compute.default_caps with Topo_core.Compute.max_reps_per_class = reps } in
        let (engine, _), dt =
          Topo_util.Timer.time (fun () ->
              ( Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~l:3 ~caps
                  ~pruning_threshold:(pruning_threshold ()) (),
                () ))
        in
        let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
        let stats =
          match engine.Engine.build_stats with (_, _, s) :: _ -> s | [] -> assert false
        in
        [
          string_of_int reps;
          string_of_int (Hashtbl.length store.Store.frequencies);
          string_of_int stats.Topo_core.Compute.capped_pairs;
          Printf.sprintf "%.2f" dt;
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  Console.print ~header:[ "max reps/class"; "topologies"; "capped pairs"; "build s" ] rows;
  print_endline "(the default of 8 observes the same topology set as 16 => caps are not binding)"

let dgj_grid () =
  print_endline "\n--- ablation 3: DGJ implementation choice (Fast-Top-k-ET, med/med, Freq) ---";
  let engine, _ = engine_l3 () in
  let cat = engine.Engine.ctx.Topo_core.Context.catalog in
  let q = grid_query cat ~protein_sel:`Medium ~interaction_sel:`Medium in
  let impl_name = function `I -> "I" | `H -> "H" in
  let rows =
    List.concat_map
      (fun fact ->
        List.concat_map
          (fun d1 ->
            List.map
              (fun d2 ->
                let impls = [ fact; d1; d2 ] in
                let _, median =
                  Topo_util.Timer.repeat_median ~runs:config.runs (fun () ->
                      let ctx = engine.Engine.ctx in
                      Topo_core.Methods.dispatch Engine.Fast_top_k_et ~impls ctx
                        (Option.get (Topo_core.Methods.align ctx q))
                        ~scheme:Ranking.Freq ~k:10)
                in
                [ String.concat "" (List.map impl_name impls); ms (median *. 1000.0) ])
              [ `I; `H ])
          [ `I; `H ])
      [ `I; `H ]
  in
  Console.print ~header:[ "impls (fact,dim1,dim2)"; "ms" ] rows;
  print_endline "(HDGJ at the fact level re-scans LeftTops per topology: the paper's 'worst plan')"

let run () =
  Topo_util.Console.section "Ablations — pruning threshold, representative caps, DGJ choice";
  threshold_sweep ();
  caps_sweep ();
  dgj_grid ()
