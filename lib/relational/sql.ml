let to_plan ?(check = true) catalog text =
  let plan = Sql_binder.plan catalog (Sql_parser.parse text) in
  if check then Plan_check.check catalog plan;
  plan

let query ?check catalog text =
  let plan = to_plan ?check catalog text in
  (Physical.schema catalog plan, Physical.run catalog plan)

let explain ?check catalog text = Physical.explain (to_plan ?check catalog text)

let render ?check catalog text =
  let schema, rows = query ?check catalog text in
  let header = Array.to_list (Array.map (fun (c : Schema.column) -> c.Schema.name) (Schema.columns schema)) in
  let body =
    List.map (fun tuple -> Array.to_list (Array.map Value.to_string tuple)) rows
  in
  Topo_util.Pretty.render ~header body

let lint catalog text = Plan_check.verify catalog (to_plan ~check:false catalog text)
