type options = { max_instances : int; show_witness : bool }

let default_options = { max_instances = 3; show_witness = true }

let entity_line catalog id =
  match Biozon.Bschema.entity_of_id catalog id with
  | Some (table, tuple) ->
      Printf.sprintf "%s %d (%s)" table id (Topo_sql.Value.to_string tuple.(1))
  | None -> Printf.sprintf "entity %d" id

let render (engine : Engine.t) (q : Query.t) (result : Request.result) ?(options = default_options) () =
  let buf = Buffer.create 1024 in
  let ctx = engine.Engine.ctx in
  let catalog = ctx.Context.catalog in
  let aligned = Option.get (Methods.align ctx q) in
  let store = aligned.Methods.store in
  Buffer.add_string buf (Printf.sprintf "query: %s\n" (Query.to_string q));
  Buffer.add_string buf
    (Printf.sprintf "method: %s  (%d topology result(s), %.1fms)\n"
       (Engine.method_name result.Request.method_)
       (List.length result.Request.ranked)
       (result.Request.elapsed_s *. 1000.0));
  List.iteri
    (fun i (tid, score) ->
      let score_str = match score with Some s -> Printf.sprintf ", score %.3g" s | None -> "" in
      Buffer.add_string buf
        (Printf.sprintf "\n%d. TID %d (freq %d%s)\n   %s\n" (i + 1) tid (Store.frequency store tid)
           score_str (Engine.describe engine tid));
      let pairs =
        Instances.qualifying_pairs ctx store ~e1:aligned.Methods.ea ~e2:aligned.Methods.eb ~tid
      in
      let shown = List.filteri (fun j _ -> j < options.max_instances) pairs in
      List.iter
        (fun (a, b) ->
          Buffer.add_string buf
            (Printf.sprintf "   - %s  <->  %s\n" (entity_line catalog a) (entity_line catalog b));
          if options.show_witness then
            match Instances.witness ctx store ~tid ~a ~b with
            | Some g ->
                let name l = Topo_util.Interner.name ctx.Context.interner l in
                Buffer.add_string buf
                  (Printf.sprintf "     witness: %s\n"
                     (Topo_graph.Lgraph.to_string ~node_name:name ~edge_name:name g))
            | None -> ())
        shown;
      let hidden = List.length pairs - List.length shown in
      if hidden > 0 then Buffer.add_string buf (Printf.sprintf "   ... and %d more instance pair(s)\n" hidden))
    result.Request.ranked;
  Buffer.contents buf

let print engine q result ?options () = print_string (render engine q result ?options ())
