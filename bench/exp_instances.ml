(* Section 6.2.4 — retrieving the instances of a topology.

   Paper: "it ranges from 1-50 seconds depending on the frequency of the
   topology".

   Measured: retrieval time (pair list + per-pair witness subgraphs) for
   the most frequent, a mid-frequency and a rare Protein-DNA topology. *)

open Bench_common

let run () =
  Topo_util.Console.section "Instance retrieval (Section 6.2.4)";
  let engine, _ = engine_l3 () in
  let ctx = engine.Engine.ctx in
  let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
  let ranked = Topo_core.Analysis.top_frequent store ~n:max_int in
  let n = List.length ranked in
  let picks =
    [ ("most frequent", List.nth ranked 0); ("median", List.nth ranked (n / 2)); ("rare", List.nth ranked (n - 1)) ]
  in
  let rows =
    List.map
      (fun (label, (tid, freq)) ->
        let (pairs, witnesses), elapsed =
          Topo_util.Timer.time (fun () ->
              let pairs = Topo_core.Instances.pairs_of_topology ctx store ~tid in
              (* Materialize witnesses for up to 50 pairs, like a result
                 page. *)
              let page = List.filteri (fun i _ -> i < 50) pairs in
              let ws =
                List.filter_map
                  (fun (a, b) -> Topo_core.Instances.witness ctx store ~tid ~a ~b)
                  page
              in
              (pairs, ws))
        in
        [
          label;
          string_of_int tid;
          string_of_int freq;
          string_of_int (List.length pairs);
          string_of_int (List.length witnesses);
          Printf.sprintf "%.1f" (elapsed *. 1000.0);
        ])
      picks
  in
  Console.print
    ~header:[ "topology"; "TID"; "freq"; "pairs"; "witnesses(<=50)"; "ms" ]
    rows;
  print_endline "\n(paper: 1-50s on Biozon depending on topology frequency; same monotone shape)"
