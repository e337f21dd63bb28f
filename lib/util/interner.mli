(** String interning.

    Entity-type and relationship-type labels are compared constantly during
    canonicalization and path enumeration; interning maps each distinct label
    to a dense integer id so comparisons are integer comparisons and labels
    can index arrays. *)

type t

(** [create ()] is an empty intern pool. *)
val create : unit -> t

(** [intern t s] is the id of [s], allocating the next dense id on first
    sight. *)
val intern : t -> string -> int

(** [name t id] recovers the string.  @raise Invalid_argument on an unknown
    id. *)
val name : t -> int -> string

(** [count t] is the number of distinct interned strings. *)
val count : t -> int
