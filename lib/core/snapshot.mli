(** Versioned binary snapshots of the offline build output.

    The paper reports more than a day of l = 4 precomputation at Biozon
    scale; a serving fleet cannot re-run the generator and the offline
    sweep on every process start.  [save] persists everything
    {!Engine.build} produced — the intern pool, every catalog table
    (schemas, tuples, primary keys), the topology registry with all
    decompositions, each pair's pruned TIDs, and the build configuration —
    as one self-contained binary file, and nothing derivable from it:
    indexes, statistics and keyword postings are derived on first use by
    a loaded engine exactly as by a built one.  [load] reconstructs a
    working {!Engine.t} from it in milliseconds, without touching the
    generator.

    Format (little-endian throughout): a fixed header — magic
    ["TOPOSNAP"], a format version, a flags word, the payload length, the
    engine's {!Engine.fingerprint} and a whole-payload checksum — followed
    by marker-introduced sections.  Table tuples are stored column-major:
    a tag byte per cell plus, for numeric columns, a fixed-width 8-byte
    payload array; [load] decodes them cell by cell into ordinary rows.

    Failure modes are loud: a bad magic, an unsupported version, a
    truncated file, a flipped payload byte (the checksum covers every
    byte, including base-table data the engine fingerprint does not
    digest), any malformed section, a repeated primary key in a table,
    and a fingerprint that the reconstructed engine fails to reproduce all
    raise {!Error} with a descriptive message.  A snapshot never loads
    silently wrong. *)

(** Raised by {!save} (unencodable state, I/O errors) and {!load}
    (unreadable, corrupt, version-mismatched, or fingerprint-mismatched
    snapshots).  The message says what was being read and where.  It is
    {!Wire.Error}: snapshots read and write through {!Wire}'s primitives
    and bounds-checked reader. *)
exception Error of string

(** The format version this build writes and reads.  Bumped on any layout
    change; [load] rejects every other version rather than guessing. *)
val version : int

(** [save engine ~path] writes the snapshot and returns the byte count.
    A shard slice keeps the full topology registry, which can carry
    decompositions recorded during other pairs' sweeps; [save] then also
    records those pairs (flag bit 0), sorted, so {!load} registers their
    schema paths as decomposition classes.  A full engine records none
    and writes flags 0.  The file depends on the build alone: saving an
    engine again after it served queries, or saving a loaded snapshot or
    slice, reproduces the same bytes.
    @raise Error on unencodable state (e.g. a string value in a numeric
    column) or I/O failure. *)
val save : Engine.t -> path:string -> int

(** [load path] reconstructs the engine: restores the intern pool, the
    catalog's tables, the topology registry (every
    topology re-registered in TID order, canonical keys verified), the
    per-pair stores, and the derived graphs (data graph and schema graph
    are rebuilt from the restored catalog — they are cheap relative to
    the sweep), then verifies that {!Engine.fingerprint} of the result
    matches the digest recorded at save time.
    @raise Error when the file is unreadable, corrupt, from another
    format version, or fails fingerprint verification. *)
val load : string -> Engine.t

(** {1 Sharded snapshots}

    The pair is the partition key: every query names an entity-set pair,
    so hashing the pair's canonical orientation-normalized key routes
    each query to exactly one shard.  [save_sharded] writes one ordinary
    snapshot per shard ([shard-K.snap], loadable with {!load} unchanged)
    holding the full intern pool, the full topology registry (global
    TIDs stay stable across shards) and all base tables, but only that
    shard's derived tables and stores — plus a JSON [manifest] recording
    the shard count, the partition derivation, the pair → shard map and
    per-shard fingerprints. *)

(** [shard_of_pair ~shards ~t1 ~t2] is the owning shard in
    [0 .. shards - 1].  Orientation-normalized: both (t1, t2) and
    (t2, t1) derive the same shard.
    @raise Error when [shards <= 0]. *)
val shard_of_pair : shards:int -> t1:string -> t2:string -> int

(** [shard_path ~dir k] is [dir/shard-K.snap]. *)
val shard_path : dir:string -> int -> string

type manifest = {
  shards : int;
  derivation : string;  (** must name this build's partition rule, or the load is refused *)
  pairs : (string * string * int) list;
      (** (t1, t2, shard) per built pair, in build orientation *)
  fingerprints : string array;  (** {!Engine.fingerprint} of each slice *)
}

(** [manifest_shard m ~t1 ~t2] is the shard owning the pair, in either
    orientation — [None] when the pair was never built. *)
val manifest_shard : manifest -> t1:string -> t2:string -> int option

(** [save_sharded engine ~dir ~shards] writes [shards] slices plus the
    manifest into [dir] (created if absent) and returns the manifest and
    the total byte count.
    @raise Error on unencodable state or I/O failure. *)
val save_sharded : Engine.t -> dir:string -> shards:int -> manifest * int

(** [load_manifest dir] reads and validates [dir/manifest]: version and
    partition derivation must match this build, every recorded pair must
    re-derive to its recorded shard, and the fingerprint list must have
    one entry per shard.
    @raise Error otherwise. *)
val load_manifest : string -> manifest
