module Sg = Topo_graph.Schema_graph
module Dg = Topo_graph.Data_graph
module Lgraph = Topo_graph.Lgraph

type row = { entities : int array; tids : int list }

type result = { rows : row list; topologies : Topology.t list; tuples_examined : int; truncated : bool }

(* Representatives of every path class between two concrete entities,
   over every schema path of length <= l, capped and ordered exactly as
   the sweep does. *)
let pair_class_reps (ctx : Context.t) ~t1 ~t2 ~a ~b =
  Compute.pair_class_reps ctx.Context.dg
    ~paths:(Compute.schema_paths_between ctx.Context.schema ~t1 ~t2 ~l:ctx.Context.l)
    ~same_type:(t1 = t2) ~a ~b ~caps:ctx.Context.caps

let connected_spanning g entities =
  Array.for_all (fun id -> Lgraph.mem_node g id) entities
  &&
  (* BFS from the first endpoint must reach every other endpoint. *)
  let seen = Hashtbl.create 32 in
  let rec dfs id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      List.iter (fun (_, other) -> dfs other) (Lgraph.neighbors g id)
    end
  in
  (if Array.length entities > 0 then dfs entities.(0));
  Array.for_all (fun id -> Hashtbl.mem seen id) entities

(* The TIDs of one tuple's spanning topologies, registered into
   [builder]: the private table layered over the engine's registry. *)
let spanning_tids (ctx : Context.t) builder ~types ~entities =
  let n = Array.length entities in
  if Array.length types <> n then invalid_arg "Nquery.tuple_topologies: arity mismatch";
  (* All pairwise class representatives, remembering each class's key so
     new topologies register with a meaningful decomposition. *)
  let class_lists = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let reps =
        pair_class_reps ctx ~t1:types.(i) ~t2:types.(j) ~a:entities.(i) ~b:entities.(j)
      in
      class_lists := !class_lists @ reps
    done
  done;
  let class_keys = List.sort_uniq compare (List.map fst !class_lists) in
  let classes = Array.of_list (List.map snd !class_lists) in
  if Array.length classes = 0 then []
  else begin
    (* Cartesian product of one representative per class, capped. *)
    let counts = Array.map Array.length classes in
    let indices = Array.make (Array.length classes) 0 in
    let budget = ref ctx.Context.caps.Compute.max_combos_per_pair in
    let tids = ref [] in
    let continue = ref true in
    while !continue && !budget > 0 do
      decr budget;
      let chosen = Array.to_list (Array.mapi (fun c idx -> classes.(c).(idx)) indices) in
      let g = Compute.union_of_representatives ctx.Context.dg chosen in
      if connected_spanning g entities then begin
        let t = Topology.register builder (Lazy.from_val g) ~decomposition:class_keys in
        if not (List.mem t.Topology.tid !tids) then tids := t.Topology.tid :: !tids
      end;
      let rec bump c =
        if c < 0 then continue := false
        else begin
          indices.(c) <- indices.(c) + 1;
          if indices.(c) >= counts.(c) then begin
            indices.(c) <- 0;
            bump (c - 1)
          end
        end
      in
      bump (Array.length classes - 1)
    done;
    List.sort compare !tids
  end

let tuple_topologies (ctx : Context.t) ~types ~entities =
  let builder = Topology.builder ~over:ctx.Context.registry () in
  let tids = spanning_tids ctx builder ~types ~entities in
  List.map (Topology.find (Topology.freeze builder)) tids

let run (ctx : Context.t) ~endpoints ?(max_tuples = 10_000) () =
  let n = List.length endpoints in
  if n < 2 then invalid_arg "Nquery.run: need at least two endpoints";
  let eps = Array.of_list endpoints in
  let types = Array.map (fun (e : Query.endpoint) -> e.Query.entity) eps in
  (* Grow tuples endpoint by endpoint: the candidate set for endpoint i is
     entities reachable within l from any already-chosen endpoint (of the
     right type, satisfying the constraint), which keeps enumeration close
     to the data. *)
  let reachable_of_type ~from_type ~from_id ~target_type =
    let seen = Hashtbl.create 64 in
    List.iter
      (fun (p : Sg.path) ->
        Dg.iter_instance_paths_from ctx.Context.dg p ~source:from_id ~f:(fun ids ->
            Hashtbl.replace seen ids.(Array.length ids - 1) ()))
      (Sg.paths ctx.Context.schema ~from_:from_type ~to_:target_type ~max_len:ctx.Context.l);
    seen
  in
  let tuples_examined = ref 0 in
  let truncated = ref false in
  let rows = ref [] in
  let ids = Array.map (Context.satisfying_ids ctx) eps in
  let builder = Topology.builder ~over:ctx.Context.registry () in
  (try
     Array.iter
       (fun a0 ->
         (* Candidates for each later endpoint: reachable from endpoint 0
            (connectivity through other endpoints is re-checked on the
            union graph, but anchoring on endpoint 0 keeps the search
            local). *)
         let rec extend chosen i =
           if i = n then begin
             incr tuples_examined;
             if !tuples_examined > max_tuples then begin
               truncated := true;
               raise Exit
             end;
             let entities = Array.of_list (List.rev chosen) in
             let tids = spanning_tids ctx builder ~types ~entities in
             if tids <> [] then rows := { entities; tids } :: !rows
           end
           else begin
             let candidates = reachable_of_type ~from_type:types.(0) ~from_id:a0 ~target_type:types.(i) in
             Hashtbl.iter
               (fun cand () ->
                 if (not (List.mem cand chosen)) && Context.mem_id ids.(i) cand then
                   extend (cand :: chosen) (i + 1))
               candidates
           end
         in
         extend [ a0 ] 1)
       ids.(0)
   with Exit -> ());
  let rows = List.rev !rows in
  let registry = Topology.freeze builder in
  let topologies =
    List.map (Topology.find registry) (List.sort_uniq compare (List.concat_map (fun r -> r.tids) rows))
  in
  { rows; topologies; tuples_examined = !tuples_examined; truncated = !truncated }
