(** The keyword-search baseline the paper argues against (Sections 1-2):
    BANKS / DBXplorer / DISCOVER-style evaluation that returns each
    connecting path as an independent, "isolated" result (Figure 4),
    instead of assembling topologies (Figure 5).

    Given a 2-query, the baseline's result set is
    U_{a in A, b in B} PS(a, b, l) — every simple instance path between
    qualifying entities, returned separately and ranked by length (shorter
    = better, the usual proximity-search heuristic).  The paper's central
    usability claim is quantitative: this set is overwhelming ("about
    250,000 results" for the example query) while the topology result is a
    handful of shapes; [isolated_paths]'s [total] measures exactly that. *)

type path_result = {
  a : int;
  b : int;
  nodes : int array;  (** the path's entities, endpoint to endpoint *)
  class_key : string;  (** its equivalence class (Definition 1) *)
  length : int;
}

type result = {
  paths : path_result list;  (** ranked: ascending length, then nodes *)
  total : int;
  truncated : bool;  (** [max_results] was hit *)
}

(** [isolated_paths ctx query ?max_results ()] runs the baseline
    (default cap 1_000_000 results). *)
val isolated_paths : Context.t -> Query.t -> ?max_results:int -> unit -> result
