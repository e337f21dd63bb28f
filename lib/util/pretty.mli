(** Plain-text table rendering for the benchmark harness.

    The bench executable reproduces the paper's tables as aligned text; this
    module renders a header and rows with column auto-sizing, matching the
    look of the tables in Section 6. *)

type align = Left | Right

(** [render ~header ?aligns rows] lays the table out with one space of
    padding and a separator rule under the header.  Rows shorter than the
    header are padded with empty cells; longer rows are truncated.  Default
    alignment is [Left] for every column. *)
val render : header:string list -> ?aligns:align list -> string list list -> string




(** [bytes_cell n] formats a byte count with a binary-ish unit suffix the way
    the paper reports table sizes (e.g. ["30MB"], ["3.36GB"]). *)
val bytes_cell : int -> string
