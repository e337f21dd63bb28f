(** Cost model for stacks of DGJ operators (Sections 5.4.2 and 5.4.3).

    The model prices a plan that feeds [m] groups of tuples (group [i] has
    [cards.(i)] tuples, in processing order — score order for topology
    queries) through a stack of [n] DGJ operators, stopping after [k] groups
    have produced a result.  Each level [i] of the stack is described by the
    statistics of Section 5.4.3:

    - [n_inner]: cardinality N_i of the inner relation,
    - [probe_cost]: index probe cost I_i,
    - [pred_sel]: local predicate selectivity rho_i,
    - [join_sel]: join selectivity s_i.

    Two formulas in the paper are typos which we repair (and note in
    DESIGN.md / code comments):

    - Lemma 1 as printed gives x_n = 0 because x_{n+1} = 0 zeroes every
      term; the base case must be x_{n+1} = 1 (a tuple surviving the whole
      stack {e is} a result).  We also weight by the binomial coefficient
      the paper omits.
    - Theorem 4 uses rho_l where the success probability of an input tuple
      is x_l; we use x_l. *)

type level = { n_inner : int; probe_cost : float; pred_sel : float; join_sel : float }

type input = {
  cards : int array;  (** Card_i per group, in processing order *)
  levels : level array;  (** bottom-up stack of DGJ operators *)
  k : int;  (** desired number of result groups *)
  per_group_overhead : float;  (** fixed cost of expanding one group (e.g. the TID probe into the fact table) *)
}

(** [hit_probabilities levels] is the array x_1..x_{n+1} of Lemma 1:
    [x.(i)] is the probability that a tuple entering level [i] (0-based)
    yields at least one plan result. *)
val hit_probabilities : level array -> float array

(** [probe_costs levels] is delta_1..delta_{n+1} of Lemma 2: expected index
    probe cost charged to one level-[i] input tuple that yields no result. *)
val probe_costs : level array -> float array

(** The terms of the model that depend on the cards and on the levels'
    hit probabilities only — [x] of Lemma 1 and, per group and per level
    above the first, [(1-x_l)^h] and the failure weight [S(h, 1-x_l)] —
    not on probe costs, the per-group overhead or [k].  Plans that differ
    only in their IDGJ/HDGJ choices share one: prepare it once and pass
    it to each pricing call. *)
type prepared

(** [prepare ~cards levels] computes the terms from the cards and the
    [n_inner], [pred_sel] and [join_sel] of each level; probe costs are
    not read. *)
val prepare : cards:int array -> level array -> prepared

(** Each function below prepares [input] itself when [?prepared] is
    absent; the result is bit-identical either way.
    @raise Invalid_argument when [prepared] was computed for other cards
    (physically) or other level statistics, and, in the two dynamic
    programs, when [input.k < 0]. *)

(** [group_params input] is the per-group [(np_i, nc_i, ec_i)] of Theorems
    2-4; [nc_i] includes the per-group overhead. *)
val group_params : ?prepared:prepared -> input -> (float * float * float) array

(** [expected_cost input] is E[Z^k_{1:m}] of Theorem 1, computed by dynamic
    programming over (group, remaining-k) in one row of [min k m + 1]
    floats: for [k >= m] the answer does not depend on [k]. *)
val expected_cost : ?prepared:prepared -> input -> float

(** [expected_groups_examined input] is the expected number of groups the
    plan opens before finding [k] results (diagnostic; reported by the
    optimizer's explain output). *)
val expected_groups_examined : ?prepared:prepared -> input -> float
