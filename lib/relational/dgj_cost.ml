type level = { n_inner : int; probe_cost : float; pred_sel : float; join_sel : float }

type input = {
  cards : int array;
  levels : level array;
  k : int;
  per_group_overhead : float;
}

let expected_matches level =
  (* K_i: how many inner tuples one outer tuple joins with.  For the
     foreign-key joins of topology plans this is 1. *)
  let k = level.join_sel *. float_of_int level.n_inner in
  if k < 1.0 then 1.0 else Float.round k

(* Binomial(n, p) expectation of f(j): sum_j C(n,j) p^j (1-p)^(n-j) f(j).
   n is small (K_i), so the direct sum is fine; we walk the probability
   mass recursively to avoid computing large binomial coefficients. *)
let binomial_expect n p f =
  let n = int_of_float n in
  if n <= 0 then f 0
  else begin
    (* Iteratively: P(j) = C(n,j) p^j (1-p)^(n-j). *)
    let q = 1.0 -. p in
    let acc = ref 0.0 in
    let prob = ref (Float.pow q (float_of_int n)) in
    for j = 0 to n do
      acc := !acc +. (!prob *. f j);
      (* P(j+1) = P(j) * (n-j)/(j+1) * p/q *)
      if j < n then
        prob :=
          if q = 0.0 then if j + 1 = n then 1.0 else 0.0
          else !prob *. (float_of_int (n - j) /. float_of_int (j + 1)) *. (p /. q)
    done;
    !acc
  end

let hit_probabilities levels =
  let n = Array.length levels in
  let x = Array.make (n + 1) 1.0 in
  (* Paper's Lemma 1 with the base case repaired: x_{n+1} = 1. *)
  for i = n - 1 downto 0 do
    let level = levels.(i) in
    let k = expected_matches level in
    x.(i) <-
      binomial_expect k level.pred_sel (fun j -> 1.0 -. Float.pow (1.0 -. x.(i + 1)) (float_of_int j))
  done;
  x

let probe_costs levels =
  let n = Array.length levels in
  let delta = Array.make (n + 1) 0.0 in
  (* Lemma 2 closed form: delta_i = I_i + rho_i * K_i * delta_{i+1}. *)
  for i = n - 1 downto 0 do
    let level = levels.(i) in
    let k = expected_matches level in
    delta.(i) <- level.probe_cost +. (level.pred_sel *. k *. delta.(i + 1))
  done;
  delta

(* Truncated sum S(h, q) = sum_{j=1}^{h} (j-1) q^{j-1}; the expected number
   of failing tuples processed before the first success, unnormalized.
   Closed form: S = q (1 - h q^{h-1} + (h-1) q^h) / (1-q)^2, with the
   degenerate q -> 1 limit h(h-1)/2. *)
let failure_weight h q =
  let hf = float_of_int h in
  if q >= 1.0 -. 1e-12 then hf *. (hf -. 1.0) /. 2.0
  else if q <= 0.0 then 0.0
  else
    let qh1 = Float.pow q (hf -. 1.0) in
    let qh = qh1 *. q in
    q *. (1.0 -. (hf *. qh1) +. ((hf -. 1.0) *. qh)) /. ((1.0 -. q) *. (1.0 -. q))

(* Theorem 4 (with x_l in place of the paper's rho_l as the probability that
   an input tuple produces a result):

     EC_{l:n}(h) = sum_{j=1}^{h} x_l (1-x_l)^{j-1}
                     [ (j-1) delta_l + I_l + EC_{l+1:n}(K_l) ]
     EC_{n+1:n}(h) = 0

   The bracket depends on j only through (j-1) delta_l, so
     EC_{l:n}(h) = (1-(1-x_l)^h) (I_l + EC_{l+1:n}(K_l))
                   + x_l delta_l S(h, 1-x_l).

   Every (1-x_l)^h and S(h, 1-x_l) the model needs depends on the levels'
   hit probabilities, not on their probe costs: h is a group's card at
   level 1 and K_{l-1} above it.  [prepare] computes them once; a plan
   that changes only probe costs (IDGJ vs HDGJ) or the per-group overhead
   reuses them. *)
type prepared = {
  p_cards : int array;
  p_levels : level array;  (* the statistics the terms were computed from *)
  x : float array;
  group_pow : float array;  (* (1-x_1)^card per group; np of Theorem 2 *)
  group_fail : float array;  (* S(card, 1-x_1) per group *)
  upper_pow : float array;  (* (1-x_l)^K_{l-1} for l >= 1 *)
  upper_fail : float array;  (* S(K_{l-1}, 1-x_l) for l >= 1 *)
}

let prepare ~cards levels =
  let n = Array.length levels in
  let x = hit_probabilities levels in
  let x1 = if n = 0 then 1.0 else x.(0) in
  let q1 = 1.0 -. x1 in
  let upper_h l = int_of_float (expected_matches levels.(l - 1)) in
  {
    p_cards = cards;
    p_levels = levels;
    x;
    group_pow = Array.map (fun card -> Float.pow q1 (float_of_int card)) cards;
    group_fail = (if n = 0 then [||] else Array.map (fun card -> failure_weight card q1) cards);
    upper_pow = Array.init n (fun l -> if l = 0 then 0.0 else Float.pow (1.0 -. x.(l)) (float_of_int (upper_h l)));
    upper_fail = Array.init n (fun l -> if l = 0 then 0.0 else failure_weight (upper_h l) (1.0 -. x.(l)));
  }

let same_statistics a b =
  a.n_inner = b.n_inner && Float.equal a.pred_sel b.pred_sel && Float.equal a.join_sel b.join_sel

let prepared_for ?prepared input =
  match prepared with
  | None -> prepare ~cards:input.cards input.levels
  | Some p ->
      if
        p.p_cards != input.cards
        || Array.length p.p_levels <> Array.length input.levels
        || not (Array.for_all2 same_statistics p.p_levels input.levels)
      then invalid_arg "Dgj_cost: prepared for other cards or level statistics";
      p

(* The per-candidate part of Theorems 2-4, for every group: nc plus the
   per-group overhead, and
     ec = EC_{1:n}(card) = (1 - np) (I_1 + EC_{2:n}(K_1)) + x_1 delta_1 S(card, 1-x_1)
   with the upper levels' EC evaluated from the prepared terms; np is
   [p.group_pow]. *)
let group_costs p input =
  let levels = input.levels in
  let n = Array.length levels and m = Array.length input.cards in
  let delta = probe_costs levels in
  (* upper.(l) = EC_{l+1:n}(K_l), the cost incurred above level l by the
     first successful tuple's matches. *)
  let upper = Array.make n 0.0 in
  for l = n - 2 downto 0 do
    let u = l + 1 in
    upper.(l) <-
      ((1.0 -. p.upper_pow.(u)) *. (levels.(u).probe_cost +. upper.(u)))
      +. (p.x.(u) *. delta.(u) *. p.upper_fail.(u))
  done;
  let delta1 = if n = 0 then 0.0 else delta.(0) in
  let ec_base = if n = 0 then 0.0 else levels.(0).probe_cost +. upper.(0) in
  let x_delta = if n = 0 then 0.0 else p.x.(0) *. delta1 in
  let nc = Array.make m 0.0 and ec = Array.make m 0.0 in
  for i = 0 to m - 1 do
    let np = p.group_pow.(i) in
    (* Theorem 3: cost of exhausting the group without a result, weighted
       by its probability. *)
    nc.(i) <- (np *. float_of_int input.cards.(i) *. delta1) +. input.per_group_overhead;
    if n > 0 then ec.(i) <- ((1.0 -. np) *. ec_base) +. (x_delta *. p.group_fail.(i))
  done;
  (nc, ec)

let group_params ?prepared input =
  let p = prepared_for ?prepared input in
  let nc, ec = group_costs p input in
  Array.mapi (fun i np -> (np, nc.(i), ec.(i))) p.group_pow

(* Theorem 1's E[Z^k'_{l:m}] is computed over groups from the last one
   back, in one row indexed by k' (E = 0 when l > m or k' = 0): the row
   for group l overwrites the row for l + 1 with k' walking downwards.  k
   is clamped to m: dp(l, k') is the same float for every k' >= m - l, so
   the clamp changes no bit and a huge k allocates nothing extra. *)
let clamped_k input =
  if input.k < 0 then invalid_arg "Dgj_cost: negative k";
  min input.k (Array.length input.cards)

let expected_cost ?prepared input =
  let p = prepared_for ?prepared input in
  let nc, ec = group_costs p input in
  let k = clamped_k input in
  let dp = Array.make (k + 1) 0.0 in
  for l = Array.length input.cards - 1 downto 0 do
    let np = p.group_pow.(l) and nc = nc.(l) and ec = ec.(l) in
    for k' = k downto 1 do
      dp.(k') <- ec +. ((1.0 -. np) *. dp.(k' - 1)) +. nc +. (np *. dp.(k'))
    done
  done;
  dp.(k)

let expected_groups_examined ?prepared input =
  let p = prepared_for ?prepared input in
  let k = clamped_k input in
  let dp = Array.make (k + 1) 0.0 in
  for l = Array.length input.cards - 1 downto 0 do
    let np = p.group_pow.(l) in
    for k' = k downto 1 do
      dp.(k') <- 1.0 +. ((1.0 -. np) *. dp.(k' - 1)) +. (np *. dp.(k'))
    done
  done;
  dp.(k)
