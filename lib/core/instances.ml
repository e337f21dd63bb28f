open Topo_sql
module Sg = Topo_graph.Schema_graph
module Dg = Topo_graph.Data_graph
module Canon = Topo_graph.Canon

let pairs_of_topology (ctx : Context.t) (store : Store.t) ~tid =
  let table = Catalog.find ctx.Context.catalog store.Store.alltops in
  let idx = Table.ensure_index table ~kind:Index.Hash ~cols:[ "TID" ] in
  List.map
    (fun rowno ->
      let tuple = Table.get table rowno in
      (Value.as_int tuple.(0), Value.as_int tuple.(1)))
    (Index.probe idx [| Value.Int tid |])
  |> List.sort compare

let qualifying_pairs ctx store ~e1 ~e2 ~tid =
  let a_ids = Context.satisfying_ids ctx e1 and b_ids = Context.satisfying_ids ctx e2 in
  List.filter
    (fun (a, b) -> Context.mem_id a_ids a && Context.mem_id b_ids b)
    (pairs_of_topology ctx store ~tid)

(* Collect up to [cap] representatives of a class anchored at (a, b),
   handling the same-endpoint-type reversal as in Compute. *)
let class_reps (ctx : Context.t) key ~a ~b =
  let cap = ctx.Context.caps.Compute.max_reps_per_class in
  let p = Context.class_path ctx key in
  let reps = ref [] in
  let count = ref 0 in
  let collect path =
    if !count < cap then
      Dg.iter_instance_paths_between ctx.Context.dg path ~a ~b ~f:(fun ids ->
          if !count < cap then begin
            reps := (path, ids) :: !reps;
            incr count
          end)
  in
  collect p;
  let rev = Sg.reverse p in
  if p.Sg.types.(0) = p.Sg.types.(Array.length p.Sg.types - 1) && rev <> p then collect rev;
  List.rev !reps

let witness_combo_for (ctx : Context.t) target decomposition ~a ~b =
  let per_class = List.map (fun key -> (key, class_reps ctx key ~a ~b)) decomposition in
  if List.exists (fun (_, reps) -> reps = []) per_class then None
  else begin
    (* Search the (capped) cartesian product for a combination whose union
       canonicalizes to the target. *)
    let classes = Array.of_list per_class in
    let n = Array.length classes in
    let reps = Array.map (fun (_, r) -> Array.of_list r) classes in
    let counts = Array.map Array.length reps in
    let indices = Array.make n 0 in
    let budget = ref ctx.Context.caps.Compute.max_combos_per_pair in
    let result = ref None in
    let continue = ref true in
    while !continue && !result = None && !budget > 0 do
      decr budget;
      let chosen = List.init n (fun c -> reps.(c).(indices.(c))) in
      let g = Compute.union_of_representatives ctx.Context.dg chosen in
      if Canon.key g = target then
        result := Some (List.map2 (fun (key, _) rep -> (key, rep)) (Array.to_list classes) chosen)
      else begin
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
        bump (n - 1)
      end
    done;
    !result
  end

let witness_combo (ctx : Context.t) store ~tid ~a ~b =
  let target = (Topology.find ctx.Context.registry tid).Topology.key in
  List.find_map (fun d -> witness_combo_for ctx target d ~a ~b) (Store.decompositions store tid)

let witness ctx store ~tid ~a ~b =
  match witness_combo ctx store ~tid ~a ~b with
  | None -> None
  | Some combo ->
      Some (Compute.union_of_representatives ctx.Context.dg (List.map snd combo))
