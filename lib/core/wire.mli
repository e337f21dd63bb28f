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

    This module knows framing, codecs, a bounds-checked payload reader
    and socket IO — but nothing about payload contents.  Every byte
    format of the repository is an {!codec} value built here from
    labelled primitives and combinators: {!Request}'s payloads and
    batches, [Shard]'s hello and each snapshot section.  One value holds
    a format's writer and its reader, so the two cannot drift apart.

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

val max_u32 : int
(** The largest value a [u32] field holds: [0x7fff_ffff]. *)

val w_u32 : Buffer.t -> int -> unit
(** Little-endian, streamed into a [Buffer.t].
    @raise Error outside [0, max_u32]. *)

(** {1 Bounds-checked payload reader} *)

type reader

val reader : ?what:string -> string -> reader
(** [reader ?what payload] starts a cursor at offset 0. [what] names the
    payload in error messages (default ["payload"]). *)

val source : reader -> string
(** The whole string the cursor walks. *)

val offset : reader -> int
(** The cursor's position: the number of bytes consumed so far. *)

val r_skip : reader -> int -> string -> int
(** [r_skip r n what] checks that [n] bytes remain, advances past them
    and returns the offset they start at. *)

val r_count : reader -> string -> int
(** Reads a u32 count and rejects counts larger than the bytes
    remaining — a cheap plausibility check on corrupt length fields. *)

val r_list : reader -> int -> string -> (unit -> 'a) -> 'a list
(** [r_list r n what f] reads [n] elements with [f] in order; [r] and
    [what] are unused.  Codecs read lists with {!list}. *)

val r_end : reader -> unit
(** Asserts the cursor consumed the whole payload; trailing bytes are a
    codec error. *)

(** {1 Codecs}

    A codec describes one byte format once: [write] streams a value into
    a buffer and [read] decodes it from a reader, checking bounds.  The
    primitives take a label that names the field in every decode error
    ("truncated payload: need 4 byte(s) for k at offset 3 of 5"). *)

type 'a codec = { write : Buffer.t -> 'a -> unit; read : reader -> 'a }

val encode : 'a codec -> 'a -> string

val decode : ?what:string -> 'a codec -> string -> 'a
(** Reads one value; trailing bytes are an {!Error}. *)

val u8 : string -> int codec

val u32 : string -> int codec
(** In [0, max_u32]; the writer raises outside it. *)

val i64 : string -> int codec

val f64 : string -> float codec
(** The float's 8-byte bit pattern. *)

val str : string -> string codec
(** A u32 length, then the bytes. *)

val value : string -> Topo_sql.Value.t codec
(** A tag byte (0 null, 1 int, 2 float, 3 string), then an {!i64}, an
    {!f64} or a {!str}. *)

val unit : unit codec
(** No bytes. *)

val literal : string -> string -> unit codec
(** [literal what s] is the bytes of [s]; the reader refuses any other
    bytes as a bad [what]. *)

val map : ('a -> 'b) -> ('b -> 'a) -> 'a codec -> 'b codec
(** [map decode encode c] codes ['b] as [c] codes ['a]. *)

val list : string -> 'a codec -> 'a list codec
(** A u32 count labelled [what], read with {!r_count}, then the elements. *)

val option : string -> 'a codec -> 'a option codec
(** A presence byte (0 or 1) labelled [what], then the value if any. *)

val pair : 'a codec -> 'b codec -> ('a * 'b) codec

val triple : 'a codec -> 'b codec -> 'c codec -> ('a * 'b * 'c) codec

(** Records, field by field in wire order:
    [record (fun a b -> {a; b}) |+ (ca, fun r -> r.a) |+ (cb, fun r -> r.b) |> seal]. *)
type ('r, 'k) fields

val record : 'k -> ('r, 'k) fields

val ( |+ ) : ('r, 'a -> 'k) fields -> 'a codec * ('r -> 'a) -> ('r, 'k) fields

val seal : ('r, 'r) fields -> 'r codec

val enum : string -> 'a list -> 'a codec
(** [enum what values] codes each value as the u8 index of the first
    structurally equal element of [values]. *)

(** One arm of a {!sum}: its payload codec, the constructor, and the
    projection that recognises the arm. *)
type 'a case

val case : 'b codec -> ('b -> 'a) -> ('a -> 'b option) -> 'a case

val sum : string -> 'a case list -> 'a codec
(** [sum what cases] writes the u8 index of the first case whose
    projection accepts the value, then its payload. *)

val fix : ('a codec -> 'a codec) -> 'a codec
(** [fix f] is the recursive codec [c = f c]. *)

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
