(** The Biozon schema (Figure 1), reconstructed.

    Seven entity sets and eight relationship sets — the paper's "28 million
    biological objects (stored in seven tables) and 9.6 million binary
    relationships (stored in eight tables)".  The relationship topology is
    chosen so that exactly ten schema paths of length <= 3 connect Proteins
    and DNAs, matching Section 3.1:

    - length 1: P-D (encodes)
    - length 2: P-U-D, P-I-D
    - length 3: P-F-P-D, P-S-P-D, P-I-P-D, P-U-P-D, P-D-P-D, P-D-U-D,
      P-D-I-D

    Pathways attach to Families (Appendix B's FWF / FWFP weak paths) and so
    do not contribute paths of length <= 3 between P and D.

    Every entity table is [ (ID, desc) ] plus DNA's [type] attribute; every
    relationship table is [ (ID, <from>, <to>) ] with its own edge id, so
    instance paths can name the concrete relationship rows they traverse
    (Figure 4 shows edge ids like "Uni_encodes 25"). *)

type entity = { e_table : string; extra_cols : (string * Topo_sql.Schema.ty) list }

type relationship = {
  r_table : string;
  rel_name : string;  (** label used in schema/instance graphs *)
  from_type : string;  (** entity table name *)
  from_col : string;
  to_type : string;
  to_col : string;
}

(** The seven entity sets, in declaration order: Protein, DNA, Unigene,
    Interaction, Family, Structure, Pathway. *)
val entities : entity list

(** The eight relationship sets. *)
val relationships : relationship list

(** [make_catalog ()] creates a fresh catalog with all fifteen (empty)
    tables, primary keys on every ID column. *)
val make_catalog : unit -> Topo_sql.Catalog.t

(** [schema_graph ()] is the schema as a graph for path enumeration. *)
val schema_graph : unit -> Topo_graph.Schema_graph.t

(** [data_graph catalog interner] materializes the instance graph from the
    fifteen tables. *)
val data_graph : Topo_sql.Catalog.t -> Topo_util.Interner.t -> Topo_graph.Data_graph.t

(** [entity_of_id catalog id] finds which entity table holds object [id]
    (object ids are globally unique), as [(table, tuple)]. *)
val entity_of_id : Topo_sql.Catalog.t -> int -> (string * Topo_sql.Tuple.t) option
