type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

let rank = function Null -> 0 | Int _ -> 1 | Float _ -> 1 | Str _ -> 2

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | (Null | Int _ | Float _ | Str _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Int x -> Hashtbl.hash x
  | Float f ->
      (* Ints and equal-valued floats must hash alike because they compare
         equal. *)
      if Float.is_integer f && Float.abs f < 1e18 then Hashtbl.hash (int_of_float f)
      else Hashtbl.hash f
  | Str s -> Hashtbl.hash s

(* [string_of_int] formats through C's printf; writing the digits here
   gives the same text several times faster.  Rows are mostly ints, and
   [Engine.fingerprint] (recomputed by every snapshot load) renders every
   derived row. *)
let int_to_string x =
  if x < 0 then string_of_int x
  else begin
    let rec width x n = if x < 10 then n else width (x / 10) (n + 1) in
    let b = Bytes.create (width x 1) in
    let rec fill x i =
      Bytes.set b i (Char.chr (48 + (x mod 10)));
      if x >= 10 then fill (x / 10) (i - 1)
    in
    fill x (Bytes.length b - 1);
    Bytes.unsafe_to_string b
  end

let to_string = function
  | Null -> "NULL"
  | Int x -> int_to_string x
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let as_int = function
  | Int x -> x
  | v -> invalid_arg ("Value.as_int: " ^ to_string v)

let as_float = function
  | Float f -> f
  | Int x -> float_of_int x
  | v -> invalid_arg ("Value.as_float: " ^ to_string v)

let as_string = function
  | Str s -> s
  | v -> invalid_arg ("Value.as_string: " ^ to_string v)

let is_null = function Null -> true | Int _ | Float _ | Str _ -> false

let width = function
  | Null -> 1
  | Int _ -> 8
  | Float _ -> 8
  | Str s -> String.length s + 8
