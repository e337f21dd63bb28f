(** Int-keyed open-addressing multimap and flat int vector — the building
    blocks of the columnar execution kernels ({!Op_kernel}).

    The multimap stores (int key, int payload) pairs; pairs sharing a key
    form a chain enumerated in {e insertion order}.  That order is a hard
    contract: the kernels must emit join matches exactly as the generic
    hash join's buckets would, so {!Engine.fingerprint} equivalence holds
    bit-for-bit.  Probing allocates nothing — [first]/[next_entry] walk
    entry indices, no closures, no lists.

    Not thread-safe (like [Topo_util.Dyn]): built privately inside an
    operator's [open_], read-only afterwards. *)

(** Growable flat int vector: selection vectors and scratch row lists.
    [Topo_util.Dyn] boxes every element; this does not. *)
module Vec : sig
  type t

  val create : ?capacity:int -> unit -> t

  val length : t -> int

  (** @raise Invalid_argument when out of bounds. *)
  val get : t -> int -> int

  val push : t -> int -> unit

  val iter : (int -> unit) -> t -> unit

  val to_list : t -> int list
end

type t

(** [create ?capacity ()] sizes the table for [capacity] expected entries
    (it still grows past that). *)
val create : ?capacity:int -> unit -> t

(** Total entries added. *)
val length : t -> int

(** [add t key payload] appends to [key]'s chain. *)
val add : t -> int -> int -> unit

(** [first t key] is the first entry index of [key]'s chain, or [-1] when
    the key is absent.  Allocation-free. *)
val first : t -> int -> int

(** [next_entry t e] is the next entry in the same chain, or [-1]. *)
val next_entry : t -> int -> int

(** [payload t e] of a valid entry index. *)
val payload : t -> int -> int
