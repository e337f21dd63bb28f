type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Col of int
  | Const of Value.t
  | Cmp of cmp * t * t
  | And of t list
  | Or of t list
  | Not of t
  | Contains of t * string
  | IsNull of t

let bool_value b = if b then Value.Int 1 else Value.Int 0

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let single_word keyword = keyword <> "" && String.for_all is_word_char keyword

let iter_tokens f text =
  let len = String.length text in
  let rec skip i = if i < len then if is_word_char text.[i] then word i (i + 1) else skip (i + 1)
  and word start j =
    if j < len && is_word_char text.[j] then word start (j + 1)
    else begin
      f (String.lowercase_ascii (String.sub text start (j - start)));
      skip j
    end
  in
  skip 0

(* [keyword] occurs at [i] of [text] under ASCII case folding.  Top-level
   and closure-free so a match allocates nothing. *)
let rec folded_equal_at text i keyword j klen =
  j = klen
  || Char.lowercase_ascii text.[i + j] = Char.lowercase_ascii keyword.[j]
     && folded_equal_at text i keyword (j + 1) klen

let rec find_word text i tlen keyword klen =
  i + klen <= tlen
  && ((i = 0 || not (is_word_char text.[i - 1]))
      && (i + klen = tlen || not (is_word_char text.[i + klen]))
      && folded_equal_at text i keyword 0 klen
     || find_word text (i + 1) tlen keyword klen)

let keyword_matches ~keyword ~text =
  let klen = String.length keyword in
  klen = 0 || find_word text 0 (String.length text) keyword klen

let apply_cmp op a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    let c = Value.compare a b in
    bool_value
      (match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0)

let rec eval expr tuple =
  match expr with
  | Col i -> tuple.(i)
  | Const v -> v
  | Cmp (op, a, b) -> apply_cmp op (eval a tuple) (eval b tuple)
  | And es ->
      let rec loop saw_null = function
        | [] -> if saw_null then Value.Null else bool_value true
        | e :: rest -> (
            match eval e tuple with
            | Value.Null -> loop true rest
            | v -> if Value.equal v (bool_value false) then bool_value false else loop saw_null rest)
      in
      loop false es
  | Or es ->
      let rec loop saw_null = function
        | [] -> if saw_null then Value.Null else bool_value false
        | e :: rest -> (
            match eval e tuple with
            | Value.Null -> loop true rest
            | v -> if Value.equal v (bool_value false) then loop saw_null rest else bool_value true)
      in
      loop false es
  | Not e -> (
      match eval e tuple with
      | Value.Null -> Value.Null
      | v -> bool_value (Value.equal v (bool_value false)))
  | Contains (e, keyword) -> (
      match eval e tuple with
      | Value.Null -> Value.Null
      | Value.Str s -> bool_value (keyword_matches ~keyword ~text:s)
      | Value.Int _ | Value.Float _ -> bool_value false)
  | IsNull e -> bool_value (Value.is_null (eval e tuple))

let truthy expr tuple =
  match eval expr tuple with
  | Value.Null -> false
  | v -> not (Value.equal v (Value.Int 0))

let always_true = function
  | And [] -> true
  | Const (Value.Int n) -> n <> 0
  | Col _ | Const _ | Cmp _ | And _ | Or _ | Not _ | Contains _ | IsNull _ -> false

let conj a b =
  match (a, b) with
  | x, y when always_true x -> y
  | x, y when always_true y -> x
  | And xs, And ys -> And (xs @ ys)
  | And xs, y -> And (xs @ [ y ])
  | x, And ys -> And (x :: ys)
  | x, y -> And [ x; y ]

let columns expr =
  let module IS = Set.Make (Int) in
  let rec go acc = function
    | Col i -> IS.add i acc
    | Const _ -> acc
    | Cmp (_, a, b) -> go (go acc a) b
    | And es | Or es -> List.fold_left go acc es
    | Not e | Contains (e, _) | IsNull e -> go acc e
  in
  IS.elements (go IS.empty expr)

let cmp_to_string = function Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec to_string = function
  | Col i -> "#" ^ string_of_int i
  | Const v -> Value.to_string v
  | Cmp (op, a, b) -> Printf.sprintf "(%s %s %s)" (to_string a) (cmp_to_string op) (to_string b)
  | And es -> "(" ^ String.concat " AND " (List.map to_string es) ^ ")"
  | Or es -> "(" ^ String.concat " OR " (List.map to_string es) ^ ")"
  | Not e -> "NOT " ^ to_string e
  | Contains (e, k) -> Printf.sprintf "%s.ct('%s')" (to_string e) k
  | IsNull e -> to_string e ^ " IS NULL"
