(** Zipfian distribution sampler.

    Figure 11 of the paper shows that topology frequency over entity-set
    pairs is approximately Zipfian; the synthetic Biozon generator uses this
    sampler to drive degree distributions so that property emerges in the
    generated data. *)

type t

(** [create ~n ~s] prepares a sampler over ranks [1..n] where rank [r] has
    probability proportional to [1 / r^s].  Precomputes the CDF in O(n).
    @raise Invalid_argument if [n <= 0] or [s < 0]. *)
val create : n:int -> s:float -> t

(** [sample t prng] draws a rank in [\[1, n\]]; smaller ranks are more
    likely.  O(log n) by binary search over the CDF. *)
val sample : t -> Prng.t -> int

(** [pmf t r] is the probability of rank [r]. *)
val pmf : t -> int -> float
