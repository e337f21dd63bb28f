(** Scalar expressions over tuples.

    Expressions are already resolved: column references are positional.  The
    SQL binder produces these from named ASTs; the topology engine builds
    them directly.  [Contains] implements the paper's keyword-containment
    predicate (written [desc.ct('enzyme')] in the paper's queries): true when
    the given keyword occurs in the string value as a whole word,
    case-insensitively. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Col of int  (** resolved column position *)
  | Const of Value.t
  | Cmp of cmp * t * t
  | And of t list
  | Or of t list
  | Not of t
  | Contains of t * string  (** keyword containment on a string column *)
  | IsNull of t

(** [eval expr tuple] evaluates to a value; comparisons yield [Int 1] /
    [Int 0], and any comparison against [Null] yields [Null]. *)
val eval : t -> Tuple.t -> Value.t

(** [truthy expr tuple] is SQL-style: true only when [eval] yields a nonzero
    non-null value. *)
val truthy : t -> Tuple.t -> bool

(** [conj a b] conjoins, flattening [And] and dropping trivially-true
    conjuncts. *)
val conj : t -> t -> t

(** [columns expr] is the sorted list of distinct column positions
    referenced. *)
val columns : t -> int list

(** [single_word keyword] holds when [keyword] is non-empty and all word
    chars.  A word-bounded match of such a keyword is exactly a token of
    {!iter_tokens} equal to it (after case folding), so token-derived
    structures — sample token counts, keyword postings — answer it
    exactly; any other keyword needs {!keyword_matches}. *)
val single_word : string -> bool

(** [iter_tokens f text] calls [f] on every token of [text], left to
    right: a maximal run of word chars, lowercased.  This is the one
    definition of a token. *)
val iter_tokens : (string -> unit) -> string -> unit

(** [keyword_matches keyword text] is the primitive behind [Contains]:
    whole-word containment under ASCII case folding.  A word is a run of
    [[A-Za-z0-9_]]; the empty keyword matches every text.  Compares bytes
    in place and allocates nothing. *)
val keyword_matches : keyword:string -> text:string -> bool

(** [to_string expr] for plan display, with [Col i] shown as [#i]. *)
val to_string : t -> string
