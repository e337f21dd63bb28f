type bucket = { lo : Value.t; hi : Value.t; count : int; distinct : int }

type t = {
  total : int;
  nulls : int;
  distinct : int;
  buckets : bucket array;
  (* Exact frequencies for the most common values: repairs the usual
     equi-depth underestimate on heavy hitters. *)
  mcv : (Value.t * int) array;
}

let mcv_slots = 8

let build ?(buckets = 32) values =
  let non_null = Array.of_list (List.filter (fun v -> not (Value.is_null v)) (Array.to_list values)) in
  let nulls = Array.length values - Array.length non_null in
  Array.sort Value.compare non_null;
  let n = Array.length non_null in
  if n = 0 then { total = 0; nulls; distinct = 0; buckets = [||]; mcv = [||] }
  else begin
    (* Count distinct values and collect value frequencies in one sorted
       pass. *)
    let freqs = Topo_util.Dyn.create () in
    let run_start = ref 0 in
    for i = 1 to n do
      if i = n || Value.compare non_null.(i) non_null.(!run_start) <> 0 then begin
        Topo_util.Dyn.push freqs (non_null.(!run_start), i - !run_start);
        run_start := i
      end
    done;
    let distinct = Topo_util.Dyn.length freqs in
    let freq_arr = Topo_util.Dyn.to_array freqs in
    let by_count = Array.copy freq_arr in
    Array.sort (fun (_, a) (_, b) -> Int.compare b a) by_count;
    let mcv = Array.sub by_count 0 (min mcv_slots (Array.length by_count)) in
    let nbuckets = min buckets (max 1 distinct) in
    let depth = max 1 (n / nbuckets) in
    let bucket_list = Topo_util.Dyn.create () in
    let i = ref 0 in
    while !i < n do
      let hi_idx = min (n - 1) (!i + depth - 1) in
      (* Extend the bucket so equal values never straddle a boundary. *)
      let hi_idx = ref hi_idx in
      while !hi_idx + 1 < n && Value.compare non_null.(!hi_idx + 1) non_null.(!hi_idx) = 0 do
        incr hi_idx
      done;
      let lo_v = non_null.(!i) and hi_v = non_null.(!hi_idx) in
      let d = ref 1 in
      for j = !i + 1 to !hi_idx do
        if Value.compare non_null.(j) non_null.(j - 1) <> 0 then incr d
      done;
      Topo_util.Dyn.push bucket_list { lo = lo_v; hi = hi_v; count = !hi_idx - !i + 1; distinct = !d };
      i := !hi_idx + 1
    done;
    { total = n; nulls; distinct; buckets = Topo_util.Dyn.to_array bucket_list; mcv }
  end

let total t = t.total

let null_count t = t.nulls

let distinct t = t.distinct

let selectivity_eq t v =
  if t.total = 0 || Value.is_null v then 0.0
  else
    match Array.find_opt (fun (mv, _) -> Value.equal mv v) t.mcv with
    | Some (_, count) -> float_of_int count /. float_of_int t.total
    | None -> (
        match
          Array.find_opt (fun b -> Value.compare v b.lo >= 0 && Value.compare v b.hi <= 0) t.buckets
        with
        | Some b -> float_of_int b.count /. float_of_int b.distinct /. float_of_int t.total
        | None -> 0.0)

let selectivity_range t ?lo ?hi () =
  if t.total = 0 then 0.0
  else begin
    let within b =
      (* Fraction of bucket [b] inside [lo, hi]: all, none, or an
         interpolated share for numeric bounds. *)
      let after_lo =
        match lo with
        | None -> 1.0
        | Some l ->
            if Value.compare b.hi l < 0 then 0.0
            else if Value.compare b.lo l >= 0 then 1.0
            else (
              match (b.lo, b.hi, l) with
              | Value.Int blo, Value.Int bhi, Value.Int li when bhi > blo ->
                  float_of_int (bhi - li + 1) /. float_of_int (bhi - blo + 1)
              | _ -> 0.5)
      and before_hi =
        match hi with
        | None -> 1.0
        | Some h ->
            if Value.compare b.lo h > 0 then 0.0
            else if Value.compare b.hi h <= 0 then 1.0
            else (
              match (b.lo, b.hi, h) with
              | Value.Int blo, Value.Int bhi, Value.Int hv when bhi > blo ->
                  float_of_int (hv - blo + 1) /. float_of_int (bhi - blo + 1)
              | _ -> 0.5)
      in
      Float.max 0.0 (after_lo +. before_hi -. 1.0)
    in
    let rows =
      Array.fold_left (fun acc b -> acc +. (within b *. float_of_int b.count)) 0.0 t.buckets
    in
    rows /. float_of_int t.total
  end

let min_value t = if Array.length t.buckets = 0 then None else Some t.buckets.(0).lo

let max_value t =
  if Array.length t.buckets = 0 then None else Some t.buckets.(Array.length t.buckets - 1).hi
