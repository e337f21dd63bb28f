(** Deterministic pseudo-random number generator.

    All randomized components of the repository (the synthetic Biozon
    generator, sampling caps in topology computation, workload shufflers)
    draw from this splitmix64 generator so that every experiment is exactly
    reproducible from a seed.  The interface mirrors the parts of
    [Stdlib.Random.State] we need, but the sequence is stable across OCaml
    versions. *)

type t

(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)
val create : int -> t

(** [split t] derives a new generator from [t], advancing [t]; streams of the
    parent and child are statistically independent. *)
val split : t -> t

(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)
val int : t -> int -> int

(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]] inclusive. *)
val int_in_range : t -> lo:int -> hi:int -> int

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [chance t p] is true with probability [p] (clamped to [\[0,1\]]). *)
val chance : t -> float -> bool

(** [choose t arr] picks a uniform element.  @raise Invalid_argument on an
    empty array. *)
val choose : t -> 'a array -> 'a

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [sample t arr k] is [k] elements drawn without replacement (all of [arr]
    if [k >= Array.length arr]); order is unspecified but deterministic. *)
val sample : t -> 'a array -> int -> 'a array
