(** Growable arrays.

    OCaml 5.1's standard library has no [Dynarray]; tables in the relational
    substrate and edge lists in the graph kit need amortized O(1) append with
    O(1) random access, so we provide one.  Not thread-safe. *)

type 'a t

(** [create ()] is an empty dynamic array. *)
val create : unit -> 'a t

(** [length t] is the number of elements. *)
val length : 'a t -> int

(** [is_empty t] is [length t = 0]. *)
val is_empty : 'a t -> bool

(** [get t i].  @raise Invalid_argument when [i] is out of bounds. *)
val get : 'a t -> int -> 'a

(** [set t i v].  @raise Invalid_argument when [i] is out of bounds. *)
val set : 'a t -> int -> 'a -> unit

(** [push t v] appends [v]. *)
val push : 'a t -> 'a -> unit

(** [pop t] removes and returns the last element.
    @raise Invalid_argument when empty. *)
val pop : 'a t -> 'a

(** [last t] is the last element. @raise Invalid_argument when empty. *)
val last : 'a t -> 'a

(** [clear t] removes every element (capacity retained). *)
val clear : 'a t -> unit

(** [iter f t] applies [f] in index order. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [iteri f t] applies [f i v] in index order. *)
val iteri : (int -> 'a -> unit) -> 'a t -> unit

(** [to_array t] is a fresh array of the contents. *)
val to_array : 'a t -> 'a array

(** [to_list t] is the contents in index order. *)
val to_list : 'a t -> 'a list

(** [of_list l] copies [l]. *)
val of_list : 'a list -> 'a t

(** [map f t] is a fresh dynamic array of images. *)
val map : ('a -> 'b) -> 'a t -> 'b t
