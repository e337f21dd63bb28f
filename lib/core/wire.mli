(** Binary wire framing for the sharded serving tier.

    A frame is the unit of exchange between the router and a shard
    server:

    {v
    offset  size  field
    0       8     magic "TOPOWIRE"
    8       2     protocol version (u16 LE)
    10      1     frame kind (u8)
    11      4     payload length (u32 LE)
    15      16    MD5 checksum of the payload (raw bytes)
    31      n     payload
    v}

    This module knows framing, little-endian primitives, a
    bounds-checked payload reader and socket IO — but nothing about
    payload contents. {!Request} owns the payload codecs (including the
    batch format) and delegates the envelope here, which keeps [Wire]
    below [Request] in the module graph.  The primitives and the reader
    are the only byte codec in the repository: {!Snapshot}, {!Request},
    [Shard] and [Router] all read and write through them.

    Every decoding failure — bad magic, cross-version header, oversized
    length, truncation, checksum mismatch, out-of-range tag — raises
    {!Error} with a message naming the field and offset. *)

exception Error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Error} with a formatted message. Exposed so
    payload codecs built on this module report errors uniformly. *)

(** {1 Frame kinds}

    Kinds 1 and 2 (single request, single outcome) are retired: the
    router speaks batches only. *)

val kind_batch_request : int

val kind_batch_outcome : int

val kind_hello : int

val kind_name : int -> string

(** {1 Writer primitives}

    Little-endian, streamed into a [Buffer.t]. *)

val w_u8 : Buffer.t -> int -> unit

val max_u32 : int
(** The largest value {!w_u32} writes and {!r_u32} reads: [0x7fff_ffff]. *)

val w_u32 : Buffer.t -> int -> unit
(** @raise Error outside [0, max_u32]. *)

val w_i64 : Buffer.t -> int -> unit

val w_f64 : Buffer.t -> float -> unit

val w_str : Buffer.t -> string -> unit

val w_bool : Buffer.t -> bool -> unit

val w_value : Buffer.t -> Topo_sql.Value.t -> unit
(** A tag byte (0 null, 1 int, 2 float, 3 string), then an 8-byte int,
    the float's 8-byte bit pattern or a length-prefixed string. *)

(** {1 Bounds-checked payload reader} *)

type reader

val reader : ?what:string -> string -> reader
(** [reader ?what payload] starts a cursor at offset 0. [what] names the
    payload in error messages (default ["payload"]). *)

val offset : reader -> int
(** The cursor's position: the number of bytes consumed so far. *)

val r_skip : reader -> int -> string -> int
(** [r_skip r n what] checks that [n] bytes remain, advances past them
    and returns the offset they start at. *)

val r_u8 : reader -> string -> int

val r_u32 : reader -> string -> int

val r_i64 : reader -> string -> int

val r_f64 : reader -> string -> float

val r_str : reader -> string -> string

val r_bool : reader -> string -> bool

val r_count : reader -> string -> int
(** Like {!r_u32} but additionally rejects counts larger than the bytes
    remaining — a cheap plausibility check on corrupt length fields. *)

val r_value : reader -> string -> Topo_sql.Value.t
(** Reads what {!w_value} writes; an unknown tag is an {!Error}. *)

val r_list : reader -> int -> string -> (unit -> 'a) -> 'a list
(** [r_list r n what f] reads [n] elements with [f] in order. *)

val r_end : reader -> unit
(** Asserts the cursor consumed the whole payload; trailing bytes are a
    codec error. *)

(** {1 Frames} *)

val frame : kind:int -> string -> string
(** [frame ~kind payload] produces one complete frame: header (with
    checksum) followed by the payload. *)

val decode_frame : string -> int * string
(** [decode_frame data] validates a complete in-memory frame and returns
    [(kind, payload)]. *)

(** {1 Socket IO} *)

val set_timeouts : ?read_s:float -> ?write_s:float -> Unix.file_descr -> unit
(** Sets SO_RCVTIMEO / SO_SNDTIMEO. A blocked {!recv} or {!send} then
    fails with a timeout {!Error} instead of hanging forever. *)

val send : Unix.file_descr -> kind:int -> string -> unit
(** Writes one complete frame, looping over short writes. *)

val recv : Unix.file_descr -> (int * string) option
(** Reads one complete frame. [None] on clean EOF at a frame boundary;
    {!Error} on truncation mid-frame, timeout, or any header/checksum
    violation. *)

(** {1 Addresses} *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> addr
(** ["host:port"] with a numeric port parses as {!Tcp}; anything else is
    a Unix-domain socket path. *)

val addr_to_string : addr -> string

val listen : ?backlog:int -> addr -> Unix.file_descr
(** Binds and listens. For a Unix socket, unlinks a stale path first;
    for TCP, sets SO_REUSEADDR. *)

val connect : ?read_s:float -> ?write_s:float -> addr -> Unix.file_descr
