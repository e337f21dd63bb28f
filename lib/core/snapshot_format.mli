(** The byte layout of a snapshot file: one {!Wire.codec} per part.

    A file is a {!header} followed by marker-introduced sections, in this
    order: {!interned} ['I'], {!class_keys} ['G'], {!catalog} ['C'],
    {!topologies} ['T'], {!build} ['B'], {!stores} ['P'], then
    {!class_pairs} ['C'] when flag bit 0 is set, then {!end_marker}
    ['E'].  Each section codec writes and reads its marker too.
    {!Snapshot} lays the sections out, converts their values to and
    from an engine and runs the checks that span sections. *)

type header = {
  version : int;
  flags : int;  (** bit 0: the class-pairs section is present *)
  payload_length : int;
  fingerprint : string;  (** {!Engine.fingerprint} at save time *)
  checksum : string;  (** hex MD5 of every payload byte *)
}

val header : header Wire.codec
(** Magic ["TOPOSNAP"], version, flags, payload length, fingerprint,
    checksum. *)

val interned : string list Wire.codec
(** The intern pool, strings in id order. *)

val class_keys : string list Wire.codec
(** The registry's decomposition class keys; {!topologies} index them. *)

val catalog : Topo_sql.Catalog.t Wire.codec
(** Every table in registration order: name, columns, primary key, row
    count, then column-major cells. *)

(** One registered topology, decompositions as {!class_keys} indexes. *)
type topology = {
  key : string;
  nodes : (int * int) list;  (** (id, label) *)
  edges : Topo_graph.Lgraph.edge list;
  decompositions : int list list;
}

val topologies : topology list Wire.codec
(** The registry in TID order. *)

val build : (int * Compute.caps * (string * string * Compute.stats) list) Wire.codec
(** [l], the caps, and each built pair's sweep statistics. *)

val stores : (string * string * int list) list Wire.codec
(** Each store's pair and its pruned TIDs, in build order. *)

val class_pairs : (string * string) list Wire.codec
(** The pairs whose schema paths a shard slice must register beyond its
    own (see {!Snapshot.save}). *)

val end_marker : unit Wire.codec
