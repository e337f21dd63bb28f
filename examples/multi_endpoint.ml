(* Multi-endpoint topology queries — the paper's future-work extension
   (Section 8: "extensions to support multiple end-points in a topology").

   Asks how a protein, a Unigene cluster and a DNA sequence can all be
   interrelated at once, on the paper's own Figure 3 database (where the
   triple (78, 103, 215) is the star of Section 2's examples) and then on
   a synthetic instance.

     dune exec examples/multi_endpoint.exe *)

open Topo_core

let () =
  (* --- Figure 3 ------------------------------------------------------- *)
  let catalog = Biozon.Paper_db.catalog () in
  let engine = Engine.build catalog ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  let ctx = engine.Engine.ctx in
  print_endline "Figure 3 database: 3-queries over (Protein, Unigene, DNA)";
  let endpoints =
    [
      Query.keyword catalog "Protein" ~col:"desc" ~kw:"enzyme";
      Query.endpoint catalog "Unigene";
      Query.equals catalog "DNA" ~col:"type" ~value:(Topo_sql.Value.Str "mRNA");
    ]
  in
  let r = Nquery.run ctx ~endpoints () in
  Printf.printf "%d qualifying (protein, unigene, dna) tuples, %d topologies\n\n"
    (List.length r.Nquery.rows) (List.length r.Nquery.topologies);
  (* New 3-endpoint topologies live only in the result, not the engine. *)
  let describe tid =
    Topology.describe ctx.Context.interner
      (List.find (fun (t : Topology.t) -> t.Topology.tid = tid) r.Nquery.topologies)
  in
  List.iter
    (fun (row : Nquery.row) ->
      Printf.printf "  tuple (%s):\n"
        (String.concat ", " (Array.to_list (Array.map string_of_int row.Nquery.entities)));
      List.iter (fun tid -> Printf.printf "    %s\n" (describe tid)) row.Nquery.tids)
    r.Nquery.rows;

  (* --- comparing two queries' topology sets --------------------------- *)
  print_endline "\ncomparing result shapes of two 2-queries (the second future-work item):";
  let run_q kw =
    let q =
      Query.make
        (Query.keyword catalog "Protein" ~col:"desc" ~kw)
        (Query.equals catalog "DNA" ~col:"type" ~value:(Topo_sql.Value.Str "mRNA"))
    in
    List.map fst
      (Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q))).Request.ranked
  in
  let enzyme = run_q "enzyme" and mms2 = run_q "MMS2" in
  let d = Compare.diff ~left:enzyme ~right:mms2 in
  Printf.printf "  'enzyme' proteins: %d shapes; 'MMS2' proteins: %d shapes\n" (List.length enzyme)
    (List.length mms2);
  Printf.printf "  shared shapes: %s\n"
    (String.concat ", " (List.map (Engine.describe engine) d.Compare.common));
  Printf.printf "  only 'enzyme': %d, only 'MMS2': %d\n" (List.length d.Compare.only_left)
    (List.length d.Compare.only_right);
  let registry = ctx.Context.registry in
  let maximal = Compare.maximal registry enzyme in
  Printf.printf "  maximal (unsubsumed) shapes among 'enzyme' results: %d of %d\n" (List.length maximal)
    (List.length enzyme)
