open Topo_sql

type node = {
  label : string;
  est_rows : float;
  est_cost : float;
  actual_rows : int;
  opens : int;
  nexts : int;
  advances : int;
  time_s : float;
  self_s : float;
  misestimate : bool;
  children : node list;
}

type report = { root : node; total_s : float; row_count : int }

let flag_ratio = 10.0

let off_by_10x ~est ~actual =
  let a = float_of_int actual in
  if a < 0.5 then est >= flag_ratio
  else if est <= 0.0 then a >= flag_ratio
  else est /. a > flag_ratio || a /. est > flag_ratio

let rec zip (e : Estimate.node) (s : Op_stats.annotated) =
  let children = List.map2 zip e.Estimate.children s.Op_stats.children in
  let st = s.Op_stats.stats in
  let child_time = List.fold_left (fun acc c -> acc +. c.time_s) 0.0 children in
  {
    label = st.Op_stats.label;
    est_rows = e.Estimate.est.Estimate.rows;
    est_cost = e.Estimate.est.Estimate.cost;
    actual_rows = st.Op_stats.rows;
    opens = st.Op_stats.opens;
    nexts = st.Op_stats.nexts;
    advances = st.Op_stats.advances;
    time_s = st.Op_stats.time_s;
    self_s = Float.max 0.0 (st.Op_stats.time_s -. child_time);
    misestimate = off_by_10x ~est:e.Estimate.est.Estimate.rows ~actual:st.Op_stats.rows;
    children;
  }

let run catalog plan =
  let estimates = Estimate.annotate catalog plan in
  let it, stats = Physical.lower_instrumented catalog plan in
  let rows, total_s = Topo_util.Timer.time (fun () -> Iterator.to_list it) in
  ({ root = zip estimates stats; total_s; row_count = List.length rows }, rows)

let of_sql ?check catalog text = run catalog (Sql.to_plan ?check catalog text)

let misestimated report =
  let rec go acc n =
    let acc = if n.misestimate then n :: acc else acc in
    List.fold_left go acc n.children
  in
  List.rev (go [] report.root)

let ratio_str ~est ~actual =
  let a = float_of_int actual in
  if a < 0.5 && est < 0.5 then "1.0x"
  else if a < 0.5 then Printf.sprintf ">%.0fx" est
  else if est <= 0.0 then Printf.sprintf ">%.0fx" a
  else
    let r = if est >= a then est /. a else a /. est in
    Printf.sprintf "%.1fx" r

let est_str f = if Float.is_integer f && Float.abs f < 1e9 then Printf.sprintf "%.0f" f else Printf.sprintf "%.3g" f

let to_text report =
  let buf = Buffer.create 512 in
  let rec go depth n =
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s  rows=%d est=%s (%s) nexts=%d%s time=%.3fms self=%.3fms cost=%s\n"
         (String.make (2 * depth) ' ')
         (if n.misestimate then "!" else " ")
         n.label n.actual_rows (est_str n.est_rows)
         (ratio_str ~est:n.est_rows ~actual:n.actual_rows)
         n.nexts
         (if n.advances > 0 then Printf.sprintf " advances=%d" n.advances else "")
         (n.time_s *. 1000.0) (n.self_s *. 1000.0) (est_str n.est_cost));
    List.iter (go (depth + 1)) n.children
  in
  Buffer.add_string buf
    (Printf.sprintf "%d row(s) in %.3fms; %d operator(s) misestimated >%.0fx\n" report.row_count
       (report.total_s *. 1000.0)
       (List.length (misestimated report))
       flag_ratio);
  go 0 report.root;
  Buffer.contents buf

let to_json report =
  let rec node_json n =
    Json.Obj
      [
        ("operator", Json.Str n.label);
        ("actual_rows", Json.int n.actual_rows);
        ("est_rows", Json.Num n.est_rows);
        ("est_cost", Json.Num n.est_cost);
        ("opens", Json.int n.opens);
        ("nexts", Json.int n.nexts);
        ("advances", Json.int n.advances);
        ("time_ms", Json.Num (n.time_s *. 1000.0));
        ("self_ms", Json.Num (n.self_s *. 1000.0));
        ("misestimate", Json.Bool n.misestimate);
        ("children", Json.Arr (List.map node_json n.children));
      ]
  in
  Json.Obj
    [
      ("row_count", Json.int report.row_count);
      ("total_ms", Json.Num (report.total_s *. 1000.0));
      ("plan", node_json report.root);
    ]
