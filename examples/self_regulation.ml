(* Self-regulation: Figure 2's third topology — a protein that is encoded
   by a DNA sequence *and* interacts with it, suggesting the protein
   regulates its own gene ("the TF self-regulates itself").

   Builds the topology's shape explicitly, finds it in a synthetic
   instance's registry by canonical key, and lists the proteins exhibiting
   the motif.

     dune exec examples/self_regulation.exe *)

open Topo_core
module Lgraph = Topo_graph.Lgraph
module Interner = Topo_util.Interner

(* P -encodes- D plus P -interacts- I -interacts- D: the protein touches
   its own DNA through an interaction object. *)
let self_regulation_graph interner =
  let n ty = Interner.intern interner ("n:" ^ ty) in
  let e rel = Interner.intern interner ("e:" ^ rel) in
  let g = Lgraph.empty () in
  List.iter
    (fun (id, ty) -> Lgraph.add_node g ~id ~label:(n ty))
    [ (1, "Protein"); (2, "DNA"); (3, "Interaction") ];
  List.iter
    (fun (u, v, rel) -> Lgraph.add_edge g ~u ~v ~label:(e rel))
    [ (1, 2, "encodes"); (1, 3, "interacts_p"); (2, 3, "interacts_d") ];
  g

let () =
  let catalog = Biozon.Generator.generate (Biozon.Generator.scale 0.5 Biozon.Generator.default) in
  let engine = Engine.build catalog ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:25 () in
  let ctx = engine.Engine.ctx in
  let interner = ctx.Context.interner in
  let key = Topo_graph.Canon.key (self_regulation_graph interner) in
  match Topology.find_by_key ctx.Context.registry key with
  | None -> print_endline "no self-regulation instances in this synthetic draw"
  | Some t ->
      let tid = t.Topology.tid in
      let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
      Printf.printf "self-regulation topology found: TID %d\n  %s\n" tid (Engine.describe engine tid);
      let pairs = Instances.pairs_of_topology ctx store ~tid in
      Printf.printf "\n%d protein-DNA pairs exhibit it:\n" (List.length pairs);
      List.iteri
        (fun i (p, d) ->
          if i < 10 then begin
            let desc id =
              match Biozon.Bschema.entity_of_id catalog id with
              | Some (_, tuple) -> Topo_sql.Value.as_string tuple.(1)
              | None -> "?"
            in
            Printf.printf "  Protein %d (%s)\n    regulates its own DNA %d (%s)\n" p (desc p) d (desc d)
          end)
        pairs;
      (* How does the Domain ranking treat it? *)
      let q = Query.make (Query.endpoint catalog "Protein") (Query.endpoint catalog "DNA") in
      let all =
        Request.get_done
          (Engine.run_request engine (Request.make ~scheme:Ranking.Domain ~k:100000 Engine.Full_top_k q))
      in
      (match List.find_index (fun (t', _) -> t' = tid) all.Request.ranked with
      | Some i ->
          Printf.printf "\nDomain-significance rank: %d of %d topologies\n" (i + 1)
            (List.length all.Request.ranked)
      | None -> ())
