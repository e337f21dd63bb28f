(** Vocabulary for synthetic entity descriptions.

    Descriptions are bags of biological-ish words plus {e calibrated
    keywords}: words injected with a fixed probability so that the Table 2
    predicate grid (selective = 15%, medium = 50%, unselective = 85%) has
    keywords of known selectivity to search for. *)

(** [(keyword, probability)] pairs injected into protein descriptions:
    [("kinase", 0.15); ("enzyme", 0.50); ("protein", 0.85)]. *)
val protein_keywords : (string * float) list

(** Injected into interaction descriptions:
    [("inhibition", 0.15); ("binding", 0.50); ("complex", 0.85)]. *)
val interaction_keywords : (string * float) list

(** [keyword_for kind selectivity] looks the calibrated keyword up;
    [kind] is [`Protein] or [`Interaction], [selectivity] is [`Selective]
    (15%), [`Medium] (50%) or [`Unselective] (85%). *)
val keyword_for : [ `Protein | `Interaction ] -> [ `Selective | `Medium | `Unselective ] -> string

(** The filler words descriptions are built from, each drawn uniformly. *)
val fillers : string array

(** DNA [type] attribute values with sampling weights:
    mRNA 0.5, EST 0.3, genomic 0.2. *)
val dna_types : (string * float) list

(** [description prng ~keywords] builds a description: 3-6 filler words,
    plus each calibrated keyword independently with its probability. *)
val description : Topo_util.Prng.t -> keywords:(string * float) list -> string

(** [dna_type prng] samples a DNA type attribute. *)
val dna_type : Topo_util.Prng.t -> string
