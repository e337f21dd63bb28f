(* Quickstart: the paper's running example, end to end.

   Loads the exact Figure 3 database, runs the offline topology
   computation, evaluates query Q1 = {(Protein, desc.ct('enzyme')),
   (DNA, type='mRNA')} with every method, and prints the four topology
   results T1-T4 with the instance pairs behind each.

     dune exec examples/quickstart.exe *)

open Topo_core

let () =
  (* 1. The database of Figure 3: four proteins, three DNAs, four Unigene
     clusters and eleven relationship rows. *)
  let catalog = Biozon.Paper_db.catalog () in
  print_endline "Figure 3 database loaded:";
  List.iter
    (fun table ->
      Printf.printf "  %-14s %d rows\n" (Topo_sql.Table.name table) (Topo_sql.Table.row_count table))
    (List.filter (fun t -> Topo_sql.Table.row_count t > 0) (Topo_sql.Catalog.tables catalog));

  (* 2. Offline phase: compute AllTops / LeftTops / ExcpTops / TopInfo for
     the Protein-DNA entity-set pair with l = 3 (Section 4). *)
  let engine = Engine.build catalog ~pairs:[ ("Protein", "DNA") ] ~l:3 ~pruning_threshold:50 () in

  (* 3. The query of Example 2.1. *)
  let q = Query.q1 catalog in
  Printf.printf "\nquery: %s\n\n" (Query.to_string q);

  (* 4. Every method returns the same four topologies (Section 2.2:
     3-Topology(Q, G) = {T1, T2, T3, T4}). *)
  List.iter
    (fun m ->
      let r = Request.get_done (Engine.run_request engine (Request.make m q)) in
      Printf.printf "%-16s -> %d topologies\n" (Engine.method_name m) (List.length r.Request.ranked))
    Engine.all_methods;

  (* 5. The topologies themselves, with their instance pairs. *)
  let r = Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)) in
  let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
  let ctx = engine.Engine.ctx in
  print_endline "\ntopology results:";
  List.iter
    (fun (tid, _) ->
      Printf.printf "\n  TID %d: %s\n" tid (Engine.describe engine tid);
      let pairs =
        Instances.qualifying_pairs ctx store ~e1:q.Query.e1 ~e2:q.Query.e2 ~tid
      in
      List.iter
        (fun (a, b) ->
          Printf.printf "    instance: Protein %d - DNA %d" a b;
          match Instances.witness ctx ~tid ~a ~b with
          | Some g -> Printf.printf "  (witness: %d nodes, %d edges)\n"
                        (Topo_graph.Lgraph.node_count g) (Topo_graph.Lgraph.edge_count g)
          | None -> print_newline ())
        pairs)
    r.Request.ranked;

  (* 6. The famous exception: (78, 215) satisfies the P-U-D path condition
     but is related by the more complex T3/T4, so after pruning it lives in
     ExcpTops (Section 4.2.2). *)
  let engine0 = Engine.build (Biozon.Paper_db.catalog ()) ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:0 () in
  let store0 = Engine.store engine0 ~t1:"Protein" ~t2:"DNA" in
  let pud =
    List.find
      (fun (t : Topology.t) -> t.Topology.n_edges = 2)
      store0.Store.pruned
  in
  Printf.printf "\nafter pruning T2 (%s):\n" (Engine.describe engine0 pud.Topology.tid);
  Printf.printf "  (78, 215) in ExcpTops: %b   (related by T3/T4 instead)\n"
    (Store.is_excepted store0 engine0.Engine.ctx.Context.catalog ~a:78 ~b:215 ~tid:pud.Topology.tid);
  Printf.printf "  (44, 742) in ExcpTops: %b   (genuinely related by T2)\n"
    (Store.is_excepted store0 engine0.Engine.ctx.Context.catalog ~a:44 ~b:742 ~tid:pud.Topology.tid)
