type t = {
  label : string;
  mutable opens : int;
  mutable nexts : int;
  mutable closes : int;
  mutable advances : int;
  mutable rows : int;
  mutable time_s : float;
}

type annotated = { stats : t; children : annotated list }

let create ~label = { label; opens = 0; nexts = 0; closes = 0; advances = 0; rows = 0; time_s = 0.0 }

let wrap stats (it : Iterator.t) =
  let timed f =
    let v, s = Topo_util.Timer.time f in
    stats.time_s <- stats.time_s +. s;
    v
  in
  {
    Iterator.schema = it.Iterator.schema;
    open_ =
      (fun () ->
        stats.opens <- stats.opens + 1;
        timed it.Iterator.open_);
    next =
      (fun () ->
        stats.nexts <- stats.nexts + 1;
        let r = timed it.Iterator.next in
        (match r with Some _ -> stats.rows <- stats.rows + 1 | None -> ());
        r);
    close =
      (fun () ->
        stats.closes <- stats.closes + 1;
        timed it.Iterator.close);
    advance_group =
      (fun () ->
        stats.advances <- stats.advances + 1;
        timed it.Iterator.advance_group);
    last_group = it.Iterator.last_group;
  }

let rec iter f a =
  f a.stats;
  List.iter (iter f) a.children
