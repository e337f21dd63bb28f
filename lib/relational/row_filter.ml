type t = int -> Tuple.t -> bool

(* A conjunct answered from keyword postings: a bitmap over the rows the
   table had at compile time.  A row appended after that falls back to
   evaluating the conjunct. *)
type check = Rows of { bits : Bytes.t; n : int; conj : Expr.t } | Eval of Expr.t

let bitmap n rows =
  let bits = Bytes.make ((n + 7) lsr 3) '\000' in
  Array.iter
    (fun r ->
      if r < n then
        let i = r lsr 3 in
        Bytes.unsafe_set bits i
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits i) lor (1 lsl (r land 7)))))
    rows;
  bits

let rec conjuncts = function Expr.And es -> List.concat_map conjuncts es | e -> [ e ]

(* The ascending rows of a conjunct answered from keyword postings. *)
let posting table conj =
  match conj with
  | Expr.Contains (Expr.Col c, keyword)
    when c < Schema.arity (Table.schema table) && Expr.single_word keyword ->
      Some (Table.keyword_rows table c keyword)
  | _ -> None

let check_of table n conj =
  match posting table conj with
  | Some rows -> Rows { bits = bitmap n rows; n; conj }
  | None -> Eval conj

let holds check r tuple =
  match check with
  | Rows { bits; n; conj } ->
      if r < n then Char.code (Bytes.unsafe_get bits (r lsr 3)) land (1 lsl (r land 7)) <> 0
      else Expr.truthy conj tuple
  | Eval e -> Expr.truthy e tuple

(* Closure-free, so testing a row allocates nothing. *)
let rec all checks r tuple =
  match checks with [] -> true | c :: rest -> holds c r tuple && all rest r tuple

let compile table pred =
  let n = Table.row_count table in
  match List.map (check_of table n) (conjuncts pred) with [ c ] -> holds c | checks -> all checks

let rows table pred =
  match match conjuncts pred with [ conj ] -> posting table conj | _ -> None with
  | Some posting -> posting
  | None ->
      let keep = compile table pred in
      let out = Array.make (Table.row_count table) 0 and len = ref 0 in
      Table.iter
        (fun r tuple ->
          if keep r tuple then begin
            out.(!len) <- r;
            incr len
          end)
        table;
      Array.sub out 0 !len
