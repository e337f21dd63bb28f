(* The Section 1 usability claim: keyword-search systems (BANKS,
   DBXplorer, DISCOVER) return every connecting path as an isolated result
   — "about 250,000 results" for the example query — while topology search
   returns a handful of shapes with the instances grouped under them.

   Measured: isolated-path result counts vs topology counts for the
   Table 2 query grid, plus the Figure 4 listing on the paper's own
   database. *)

open Bench_common

let run () =
  Topo_util.Console.section "Baseline — isolated path results vs topology results (Section 1)";
  (* Figure 4 on the paper database. *)
  let cat = Biozon.Paper_db.catalog () in
  let engine = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  let q = Query.q1 cat in
  let baseline = Topo_core.Baseline.isolated_paths engine.Engine.ctx q () in
  Printf.printf "paper database, query Q1: %d isolated paths (Figure 4's L1..L6):\n"
    baseline.Topo_core.Baseline.total;
  List.iter
    (fun (p : Topo_core.Baseline.path_result) ->
      Printf.printf "  %s\n"
        (String.concat " - " (Array.to_list (Array.map string_of_int p.Topo_core.Baseline.nodes))))
    baseline.Topo_core.Baseline.paths;
  let topo = Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)) in
  Printf.printf "vs %d topology results (Figure 5's T1..T4)\n" (List.length topo.Request.ranked);
  (* The synthetic instance at scale. *)
  print_newline ();
  let engine, _ = engine_l3 () in
  let ctx = engine.Engine.ctx in
  let big_cat = ctx.Topo_core.Context.catalog in
  let rows =
    List.concat_map
      (fun (psel, pname) ->
        List.map
          (fun (isel, iname) ->
            let q = grid_query big_cat ~protein_sel:psel ~interaction_sel:isel in
            let b = Topo_core.Baseline.isolated_paths ctx q () in
            let t = Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)) in
            let n_topos = List.length t.Request.ranked in
            [
              pname ^ "/" ^ iname;
              string_of_int b.Topo_core.Baseline.total;
              string_of_int n_topos;
              (if n_topos = 0 then "-" else Printf.sprintf "%dx" (b.Topo_core.Baseline.total / max 1 n_topos));
            ])
          selectivities)
      selectivities
  in
  Console.print
    ~header:[ "protein/interaction"; "isolated results"; "topologies"; "reduction" ]
    rows;
  print_endline "\n(paper: ~250,000 isolated results vs a page of topologies for the example query)"
