(** Topologies and the topology registry.

    A topology (Definition 2) is an isomorphism class of labeled graphs; we
    represent the class by its canonical key and intern keys into dense
    {e TIDs}.  Each registered topology keeps one representative graph, its
    size, and its {e decomposition}: the set of path-equivalence-class keys
    (Definition 1) whose union first produced it.  The registry is built
    through one {!builder}, then {!freeze} gives the immutable {!registry}
    a served engine reads. *)

type t = {
  tid : int;
  key : string;  (** canonical key of the class *)
  graph : Topo_graph.Lgraph.t;  (** one representative, node ids arbitrary *)
  n_nodes : int;
  n_edges : int;
  decomposition : string list;  (** sorted path-class keys of the first derivation *)
  decompositions : string list list;
      (** every distinct derivation, first-seen order: one canonical graph
          can arise from class sets that differ (symmetric shapes place
          the endpoints differently; other entity-set pairs use their own
          classes).  Each {!Store.t} keeps its own pair's, which
          Fast-Top's pruned checks evaluate (Section 4.2.2). *)
}

type builder
(** The registry while one domain writes it: the offline build's commit,
    {!Snapshot.load}, or an n-query's private table. *)

type registry
(** Frozen: immutable, read by any domain.  A {!Context.t} holds only
    this, so nothing registers into a served engine. *)

(** [builder ?over ()] is empty, TIDs assigned densely from 1; with
    [over] it starts as a copy of that registry, so new TIDs continue
    past [count over]. *)
val builder : ?over:registry -> unit -> builder

(** [register ?key builder graph ~decomposition] interns the graph's
    class and returns its topology as registered so far (keep the TID:
    a new decomposition later extends [decompositions]), allocating a
    fresh TID on first sight.  [graph] is forced only for a new class or
    when [key] is absent.  [key], when given, must be [Canon.key graph]:
    the offline sweep passes the key it has already computed.  Without
    it the key is computed here, which is how a snapshot load checks the
    keys its file records. *)
val register : ?key:string -> builder -> Topo_graph.Lgraph.t Lazy.t -> decomposition:string list -> t

(** [freeze builder] is the registry as written so far; [builder] may go
    on growing without affecting it. *)
val freeze : builder -> registry

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
