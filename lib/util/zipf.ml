type t = { n : int; cdf : float array; pmf : float array }

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s < 0.0 then invalid_arg "Zipf.create: s must be non-negative";
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let pmf = Array.map (fun w -> w /. total) weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  let prev = ref 0.0 in
  Array.iteri
    (fun i p ->
      acc := !acc +. p;
      (* Clamp against the previous entry and 1.0 so float drift for large
         [n] can never make the CDF non-monotone (the binary search in
         [sample] assumes monotonicity). *)
      let v = Float.min 1.0 (Float.max !acc !prev) in
      cdf.(i) <- v;
      prev := v)
    pmf;
  cdf.(n - 1) <- 1.0;
  { n; cdf; pmf }

let sample t prng =
  let u = Prng.float prng in
  (* Smallest index whose cdf >= u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (t.n - 1) + 1

let pmf t r =
  if r < 1 || r > t.n then 0.0 else t.pmf.(r - 1)
