(** Topologies and the topology registry.

    A topology (Definition 2) is an isomorphism class of labeled graphs; we
    represent the class by its canonical key and intern keys into dense
    {e TIDs}.  Each registered topology keeps one representative graph, its
    size, and its {e decomposition}: the set of path-equivalence-class keys
    (Definition 1) whose union first produced it.  The decomposition is what
    Fast-Top's pruned-topology checks evaluate at query time ("the simple
    path (or graph) condition" of Section 4.2.2). *)

type t = {
  tid : int;
  key : string;  (** canonical key of the class *)
  graph : Topo_graph.Lgraph.t;  (** one representative, node ids arbitrary *)
  n_nodes : int;
  n_edges : int;
  decomposition : string list;  (** sorted path-class keys of the first derivation *)
  decompositions : string list list Atomic.t;
      (** every distinct derivation observed (first one included): the same
          canonical graph can arise from pairs whose path-class sets differ
          (symmetric shapes place the query endpoints differently), and the
          pruned-topology condition must accept any of them.  Only the
          registry's writers extend it (see {!registry}); it is atomic so a
          serving domain's [Atomic.get] always yields a fully-published
          list *)
}

type registry
(** Written once, read by any domain.  Only the offline build's commit,
    {!Snapshot.load} and the single-domain n-query CLI ({!Nquery}) call
    {!register}, on the domain that owns the registry and before it
    serves; serving never registers (the SQL method recomputes keys, not
    TIDs).  The state is an immutable snapshot behind an [Atomic.t], so
    [find], [count], [all] and [find_by_key] are lock-free and never
    observe partially-built entries. *)

(** [create_registry ()] is empty; TIDs are assigned densely from 1. *)
val create_registry : unit -> registry

(** [register ?key registry graph ~decomposition] interns the graph's class
    and returns its topology, allocating a fresh TID on first sight; later
    registrations with a new decomposition extend [decompositions].  [key],
    when given, must be [Canon.key graph]: the offline sweep passes the key
    it has already computed.  Without it the key is computed here, which is
    how a snapshot load checks the keys its file records.  Single writer:
    never call it while another domain may register. *)
val register : ?key:string -> registry -> Topo_graph.Lgraph.t -> decomposition:string list -> t

(** [find registry tid].  @raise Not_found for unknown TIDs. *)
val find : registry -> int -> t

(** [find_by_key registry key]. *)
val find_by_key : registry -> string -> t option

(** [count registry] is the number of distinct registered topologies. *)
val count : registry -> int

(** [all registry] in TID order. *)
val all : registry -> t list

(** [is_single_path t] is true when the representative is a simple path
    (every node degree <= 2, exactly two degree-1 nodes, no cycle) — the
    shape of most frequent topologies (Figure 12). *)
val is_single_path : t -> bool

(** [describe interner t] renders the representative with type names
    resolved through the intern pool, e.g.
    ["Protein -uni_encodes- Unigene -uni_contains- DNA"] for paths and an
    edge list for complex shapes. *)
val describe : Topo_util.Interner.t -> t -> string
