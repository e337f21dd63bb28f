(** The exact example database of Figure 3 / Figure 6.

    Four proteins, three DNAs, four Unigene clusters, and the eleven
    relationship rows of Figure 6 (edge ids preserved: "Uni_encodes 25",
    "Encodes 44", ...).  This tiny instance drives every worked example in
    Sections 1-4:

    - PS(78, 215, 3) = three paths in two equivalence classes,
    - 3-Top(78, 215) = the complex topologies T3 and T4,
    - 3-Top(32, 214) = the simple encodes path T1,
    - 3-Top(44, 742) = the P-U-D path T2,
    - query Q1 = (Protein "enzyme", DNA type mRNA) returns T1..T4.

    Tests and the quickstart example check these published facts
    verbatim. *)

(** [catalog ()] is a fresh catalog holding exactly the Figure 3 data. *)
val catalog : unit -> Topo_sql.Catalog.t

(** The protein / DNA ids the worked examples use. *)
val p78 : int

val d215 : int
