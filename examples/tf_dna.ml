(* The introduction's motivating question: "how are transcription factor
   proteins related to DNAs?"

   Generates a synthetic Biozon instance, searches for proteins whose
   description mentions "factor" against mRNA DNAs, and prints the ranked
   topology summary (schema level) followed by sample instances — the
   "big picture" presentation of Figure 5, instead of the 250,000 isolated
   rows of Figure 4.

     dune exec examples/tf_dna.exe *)

open Topo_core

let () =
  let catalog = Biozon.Generator.generate (Biozon.Generator.scale 0.5 Biozon.Generator.default) in
  Printf.printf "synthetic Biozon instance:\n";
  List.iter
    (fun (name, count) -> if count > 0 then Printf.printf "  %-18s %6d\n" name count)
    (Biozon.Generator.summary catalog);

  let engine = Engine.build catalog ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:25 () in

  let q =
    Query.make
      (Query.keyword catalog "Protein" ~col:"desc" ~kw:"factor")
      (Query.equals catalog "DNA" ~col:"type" ~value:(Topo_sql.Value.Str "mRNA"))
  in
  Printf.printf "\nquery: %s\n" (Query.to_string q);

  (* Full topology result: the schema-level summary. *)
  let r = Request.get_done (Engine.run_request engine (Request.make Engine.Fast_top q)) in
  Printf.printf "\n%d topologies relate 'factor' proteins to mRNAs:\n" (List.length r.Request.ranked);

  (* Rank by biological significance and show the top five with one
     instance each. *)
  let top =
    Request.get_done
      (Engine.run_request engine (Request.make ~scheme:Ranking.Domain ~k:5 Engine.Fast_top_k_opt q))
  in
  let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
  let ctx = engine.Engine.ctx in
  List.iteri
    (fun i (tid, score) ->
      Printf.printf "\n%d. [domain score %.1f, %d pairs overall] %s\n" (i + 1)
        (Option.value ~default:0.0 score) (Store.frequency store tid) (Engine.describe engine tid);
      match Instances.qualifying_pairs ctx store ~e1:q.Query.e1 ~e2:q.Query.e2 ~tid with
      | (a, b) :: _ ->
          let protein_desc =
            match Biozon.Bschema.entity_of_id catalog a with
            | Some (_, tuple) -> Topo_sql.Value.as_string tuple.(1)
            | None -> "?"
          in
          Printf.printf "   e.g. Protein %d (%s) - DNA %d\n" a protein_desc b
      | [] -> ())
    top.Request.ranked;
  match top.Request.strategy with
  | Some strategy ->
      Printf.printf "\n(optimizer chose the %s plan)\n"
        (match strategy with
        | Topo_sql.Optimizer.Regular -> "regular join"
        | Topo_sql.Optimizer.Early_termination -> "early-termination DGJ")
  | None -> ()
