type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free: 62 positive bits modulo bound.  Bias is < 2^-50 for the
     bounds used in this repository.  (Int64.to_int keeps 63 bits, so shift
     by 2 to stay non-negative.) *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 random bits scaled to [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v *. 0x1p-53

let chance t p = if p >= 1.0 then true else if p <= 0.0 then false else float t < p

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t arr k =
  let n = Array.length arr in
  if k >= n then Array.copy arr
  else begin
    let copy = Array.copy arr in
    (* Partial Fisher-Yates: only the first k slots need to be settled. *)
    for i = 0 to k - 1 do
      let j = int_in_range t ~lo:i ~hi:(n - 1) in
      let tmp = copy.(i) in
      copy.(i) <- copy.(j);
      copy.(j) <- tmp
    done;
    Array.sub copy 0 k
  end
