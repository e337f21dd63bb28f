type t = {
  histograms : Histogram.t array;
  samples : Value.t array array;  (* bounded per-column sample for Contains *)
  tokens : (string * int) array array;
      (* Per column, derived from [samples]: every lowercased maximal word
         token with the number of [Str] samples containing it, sorted by
         token; [[||]] when no sample is a [Str]. *)
}

let sample_size = 512

(* One count per sample, not per occurrence: [last] remembers the sample
   that counted the token most recently. *)
let token_counts sample =
  let counts = Hashtbl.create 64 in
  Array.iteri
    (fun row v ->
      match v with
      | Value.Str s ->
          Expr.iter_tokens
            (fun tok ->
              match Hashtbl.find_opt counts tok with
              | Some (_, last) when last = row -> ()
              | Some (n, _) -> Hashtbl.replace counts tok (n + 1, row)
              | None -> Hashtbl.replace counts tok (1, row))
            s
      | Value.Null | Value.Int _ | Value.Float _ -> ())
    sample;
  let table = Array.of_seq (Seq.map (fun (tok, (n, _)) -> (tok, n)) (Hashtbl.to_seq counts)) in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) table;
  table

let compute table =
  let rows = Table.rows table in
  let arity = Schema.arity (Table.schema table) in
  (* Column-major view over the row snapshot: every derived array is
     local to this call, so stats building needs no shared mutation. *)
  let columns = Array.init arity (fun c -> Array.map (fun tuple -> tuple.(c)) rows) in
  let histograms = Array.map Histogram.build columns in
  let samples =
    Array.map
      (fun all ->
        if Array.length all <= sample_size then Array.copy all
        else
          (* Deterministic systematic sample: every (n/size)-th row. *)
          let step = Array.length all / sample_size in
          Array.init sample_size (fun i -> all.(i * step)))
      columns
  in
  { histograms; samples; tokens = Array.map token_counts samples }

let sample t col =
  if col < 0 || col >= Array.length t.samples then
    invalid_arg (Printf.sprintf "Table_stats.sample: column %d" col);
  Array.copy t.samples.(col)

let distinct t col =
  if col < 0 || col >= Array.length t.histograms then
    invalid_arg (Printf.sprintf "Table_stats.distinct: column %d" col);
  Histogram.distinct t.histograms.(col)

(* Samples containing [token], by binary search of a sorted token table. *)
let token_count table token =
  let rec search lo hi =
    if lo >= hi then 0
    else
      let mid = (lo + hi) / 2 in
      let tok, n = table.(mid) in
      let c = String.compare token tok in
      if c = 0 then n else if c < 0 then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length table)

(* A word-bounded match of a non-empty, all-word-char keyword is exactly a
   maximal token equal to it, so the token count equals the sample scan's
   hit count.  Any other keyword scans the sample. *)
let contains_selectivity t col keyword =
  let sample = t.samples.(col) in
  if Array.length sample = 0 then 0.0
  else
    let hits =
      if Expr.single_word keyword then
        token_count t.tokens.(col) (String.lowercase_ascii keyword)
      else
        Array.fold_left
          (fun hits v ->
            match v with
            | Value.Str s when Expr.keyword_matches ~keyword ~text:s -> hits + 1
            | Value.Str _ | Value.Null | Value.Int _ | Value.Float _ -> hits)
          0 sample
    in
    float_of_int hits /. float_of_int (Array.length sample)

let clamp01 f = Float.max 0.0 (Float.min 1.0 f)

let rec selectivity t expr =
  match expr with
  | Expr.Const v -> if Value.is_null v || Value.equal v (Value.Int 0) then 0.0 else 1.0
  | Expr.Col _ -> 0.5
  | Expr.Cmp (op, Expr.Col c, Expr.Const v) | Expr.Cmp (op, Expr.Const v, Expr.Col c)
    when c < Array.length t.histograms -> (
      let h = t.histograms.(c) in
      (* Flip the operator when the constant is on the left. *)
      let op =
        match expr with
        | Expr.Cmp (_, Expr.Const _, Expr.Col _) -> (
            match op with
            | Expr.Lt -> Expr.Gt
            | Expr.Le -> Expr.Ge
            | Expr.Gt -> Expr.Lt
            | Expr.Ge -> Expr.Le
            | Expr.Eq | Expr.Ne -> op)
        | _ -> op
      in
      match op with
      | Expr.Eq -> Histogram.selectivity_eq h v
      | Expr.Ne -> clamp01 (1.0 -. Histogram.selectivity_eq h v)
      | Expr.Lt | Expr.Le -> Histogram.selectivity_range h ~hi:v ()
      | Expr.Gt | Expr.Ge -> Histogram.selectivity_range h ~lo:v ())
  | Expr.Cmp (Expr.Eq, _, _) -> 0.1
  | Expr.Cmp ((Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _) -> 0.33
  | Expr.And es -> List.fold_left (fun acc e -> acc *. selectivity t e) 1.0 es
  | Expr.Or es ->
      (* Inclusion under independence: 1 - prod (1 - s_i). *)
      1.0 -. List.fold_left (fun acc e -> acc *. (1.0 -. selectivity t e)) 1.0 es
  | Expr.Not e -> clamp01 (1.0 -. selectivity t e)
  | Expr.Contains (Expr.Col c, kw) when c < Array.length t.samples -> contains_selectivity t c kw
  | Expr.Contains (_, _) -> 0.1
  | Expr.IsNull (Expr.Col c) when c < Array.length t.histograms ->
      let h = t.histograms.(c) in
      let tot = Histogram.total h + Histogram.null_count h in
      if tot = 0 then 0.0 else float_of_int (Histogram.null_count h) /. float_of_int tot
  | Expr.IsNull _ -> 0.01

let predicate_selectivity t _schema expr = clamp01 (selectivity t expr)

let join_selectivity ~left ~left_col ~right ~right_col =
  let dl = max 1 (distinct left left_col) and dr = max 1 (distinct right right_col) in
  1.0 /. float_of_int (max dl dr)
