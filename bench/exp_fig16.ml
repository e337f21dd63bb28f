(* Figure 16 — a topology of biological significance: two proteins encoded
   by the same DNA sequence that also interact with each other.

   Paper: found by browsing the ranked topology list; flagged by the domain
   expert as the interesting operon/viral-genome pattern.

   Measured: we construct the motif as a labeled graph, look it up in the
   registry built from the synthetic instance, report its frequency and its
   rank under the Domain scheme, and print one concrete instance. *)

open Bench_common
module Lgraph = Topo_graph.Lgraph
module Interner = Topo_util.Interner

(* The motif as a Protein-DNA topology: P1-encodes-D, P2-encodes-D,
   P1-interacts-I-interacts-P2 (the interaction entity sits between the two
   proteins in the Biozon data model). *)
let motif_graph interner =
  let n ty = Interner.intern interner ("n:" ^ ty) in
  let e rel = Interner.intern interner ("e:" ^ rel) in
  let g = Lgraph.empty () in
  List.iter
    (fun (id, ty) -> Lgraph.add_node g ~id ~label:(n ty))
    [ (1, "Protein"); (2, "Protein"); (3, "DNA"); (4, "Interaction") ];
  List.iter
    (fun (u, v, rel) -> Lgraph.add_edge g ~u ~v ~label:(e rel))
    [ (1, 3, "encodes"); (2, 3, "encodes"); (1, 4, "interacts_p"); (2, 4, "interacts_p") ];
  g

let run () =
  Topo_util.Console.section "Figure 16 — the biologically significant topology";
  let engine, _ = engine_l3 () in
  let ctx = engine.Engine.ctx in
  let interner = ctx.Topo_core.Context.interner in
  let key = Topo_graph.Canon.key (motif_graph interner) in
  match Topo_core.Topology.find_by_key ctx.Topo_core.Context.registry key with
  | None ->
      print_endline "motif not present in this instance (increase scale or operon probability)"
  | Some t ->
      let tid = t.Topo_core.Topology.tid in
      let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
      Printf.printf "motif found: TID %d, structure: %s\n" tid (Engine.describe engine tid);
      Printf.printf "frequency (entity pairs related by it): %d\n" (Store.frequency store tid);
      (* Rank under each scheme on the unconstrained P-D query. *)
      let cat = ctx.Topo_core.Context.catalog in
      let q = Query.make (Query.endpoint cat "Protein") (Query.endpoint cat "DNA") in
      List.iter
        (fun scheme ->
          let r =
            Request.get_done
              (Engine.run_request engine (Request.make ~scheme ~k:100000 Engine.Full_top_k q))
          in
          let rank =
            match List.find_index (fun (t', _) -> t' = tid) r.Request.ranked with
            | Some i -> string_of_int (i + 1)
            | None -> "-"
          in
          Printf.printf "rank under %-6s: %s of %d\n" (Ranking.name scheme) rank
            (List.length r.Request.ranked))
        Ranking.all;
      (* One concrete instance. *)
      (match Topo_core.Instances.pairs_of_topology ctx store ~tid with
      | [] -> ()
      | (a, b) :: _ -> (
          Printf.printf "example instance pair: Protein %d, DNA %d\n" a b;
          match Topo_core.Instances.witness ctx store ~tid ~a ~b with
          | Some g ->
              Printf.printf "witness subgraph: %s\n"
                (Lgraph.to_string ~node_name:(Interner.name interner) ~edge_name:(Interner.name interner) g)
          | None -> ()))
