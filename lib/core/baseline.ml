module Sg = Topo_graph.Schema_graph

type path_result = { a : int; b : int; nodes : int array; class_key : string; length : int }

type result = { paths : path_result list; total : int; truncated : bool }

exception Budget

let isolated_paths (ctx : Context.t) (q : Query.t) ?(max_results = 1_000_000) () =
  let t1 = q.Query.e1.Query.entity and t2 = q.Query.e2.Query.entity in
  let a_ok = Hashtbl.create 256 and b_ok = Hashtbl.create 256 in
  Array.iter (fun id -> Hashtbl.replace a_ok id ()) (Context.satisfying_ids ctx q.Query.e1);
  Array.iter (fun id -> Hashtbl.replace b_ok id ()) (Context.satisfying_ids ctx q.Query.e2);
  let results = Topo_util.Dyn.create () in
  let truncated = ref false in
  let handle key ids =
    let a0 = ids.(0) and b0 = ids.(Array.length ids - 1) in
    (* Orient to the query: the enumeration runs from t1, but for same-type
       queries either end may satisfy either constraint. *)
    let emit a b nodes =
      if Hashtbl.mem a_ok a && Hashtbl.mem b_ok b then begin
        if Topo_util.Dyn.length results >= max_results then begin
          truncated := true;
          raise Budget
        end;
        Topo_util.Dyn.push results
          { a; b; nodes; class_key = key; length = Array.length nodes - 1 }
      end
    in
    emit a0 b0 ids;
    if t1 = t2 && a0 <> b0 then begin
      let n = Array.length ids in
      emit b0 a0 (Array.init n (fun i -> ids.(n - 1 - i)))
    end
  in
  (try
     List.iter
       (fun (p : Sg.path) ->
         let key = Sg.path_key p in
         Topo_graph.Data_graph.iter_instance_paths ctx.Context.dg p ~f:(fun ids -> handle key ids))
       (Sg.paths ctx.Context.schema ~from_:t1 ~to_:t2 ~max_len:ctx.Context.l)
   with Budget -> ());
  let paths =
    Topo_util.Dyn.to_list results
    |> List.sort (fun p1 p2 ->
           let c = Int.compare p1.length p2.length in
           if c <> 0 then c else compare (p1.a, p1.b, p1.nodes) (p2.a, p2.b, p2.nodes))
  in
  { paths; total = List.length paths; truncated = !truncated }
