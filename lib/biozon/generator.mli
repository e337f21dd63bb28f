(** Synthetic Biozon instance generator.

    The real Biozon dump is unavailable, so experiments run on a generated
    instance engineered to reproduce the statistical properties the paper's
    techniques exploit (DESIGN.md, substitutions):

    - {b Zipfian topology frequency} (Figure 11): most entity pairs are
      related by one simple path; sharing of Unigene clusters, long DNAs
      and interaction partners follows skewed (Zipf) distributions, so a
      few pairs are related in rich, rare ways.
    - {b Simple frequent topologies} (Figure 12): the bulk of edges form
      P-D / P-U-D / P-I-D patterns.
    - {b The Figure 16 motif}: operon-style DNAs encode several proteins,
      and consecutive operon proteins interact with probability
      [p_operon_interaction]; some interactions also touch the DNA
      (self-regulation, Figure 2's third topology).
    - {b Weak relationships} (Section 6.2.3): EST-containing Unigene
      clusters create P-D-P-U-D paths at l = 4.
    - {b Calibrated predicate selectivities} for Table 2 via
      {!Vocab.protein_keywords} / {!Vocab.interaction_keywords}.

    Generation is deterministic from [seed]. *)

type params = {
  seed : int;
  n_proteins : int;
  n_unigenes : int;
  n_interactions : int;
  n_families : int;
  n_structures : int;
  n_pathways : int;
  p_operon_interaction : float;  (** interaction between consecutive operon proteins *)
  p_self_regulation : float;  (** interaction also linking a protein's own DNA *)
  p_interaction_dna : float;  (** interaction touching some DNA *)
  zipf_s : float;  (** skew of shared-entity popularity *)
}

(** Defaults sized so the full AllTops precomputation (l = 3) runs in
    seconds: 1200 proteins and proportional sibling populations.  DNAs are
    derived from proteins (mRNAs, operons, genomic sequences), roughly
    0.9 per protein. *)
val default : params

(** [scale f params] multiplies every population by [f] (at least 1).
    @raise Invalid_argument unless [f] is finite and [> 0]. *)
val scale : float -> params -> params

(** [generate params] builds the catalog.  Object ids are globally unique
    across all entity tables; relationship rows get their own id space.
    @raise Invalid_argument when [params] asks for interactions with fewer
    than two proteins. *)
val generate : params -> Topo_sql.Catalog.t

(** [summary catalog] is [(table, row_count)] for every table. *)
val summary : Topo_sql.Catalog.t -> (string * int) list
