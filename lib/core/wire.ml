(* The binary wire protocol's framing layer.

   One frame is one message between a router and a shard server:

     magic "TOPOWIRE" | version u16 | kind u8 | payload length u32
     | payload checksum (MD5, 16 raw bytes) | payload bytes

   All integers are little-endian; the
   header is a fixed 31 bytes so a reader can pull it in one blocking
   read and know exactly how much payload follows.  The checksum covers
   every payload byte, so a flipped bit in transit is a loud [Error],
   never a silently wrong answer.

   This module is deliberately *below* [Request] in the module graph: it
   knows framing, little-endian primitives and socket IO, but nothing
   about what the payloads mean.  [Request] owns the payload codecs,
   batch format included, and delegate the frame envelope here, so the
   canonical key, the cache key and the wire form live at one site.
   The primitives and the reader are the repository's only byte codec:
   [Snapshot] writes and reads its files through them too.

   Socket IO: [send]/[recv] speak frames over a connected socket with
   optional read/write timeouts (SO_RCVTIMEO/SO_SNDTIMEO, see
   [set_timeouts]).  A timeout or a connection torn down mid-frame
   surfaces as [Error] with the offset reached — the router's
   degradation path depends on blocked reads being bounded. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

let magic = "TOPOWIRE"

(* 2: a [Failed] outcome carries its [Request.failure] arm. *)
let version = 2

(* A corrupt or hostile length field must not drive a gigabyte
   allocation before the checksum can catch it.  16 MiB comfortably
   holds any batch the serving tier produces. *)
let max_payload = 16 * 1024 * 1024

(* Frame kinds.  The codec owners assign payload meanings; the numbers
   are declared here so both sides of the protocol share one registry. *)
(* 1 and 2 were single-request and single-outcome frames; retired, not
   reused. *)
let kind_batch_request = 3

let kind_batch_outcome = 4

let kind_hello = 5

let kind_name = function
  | 3 -> "batch-request"
  | 4 -> "batch-outcome"
  | 5 -> "hello"
  | k -> Printf.sprintf "unknown-%d" k

(* ------------------------------------------------------------------ *)
(* Writer primitives (Buffer-streamed, little-endian)                  *)

let w_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let w_u16 buf n =
  if n < 0 || n > 0xffff then fail "encode: u16 out of range (%d)" n;
  Buffer.add_uint16_le buf n

let max_u32 = 0x7fff_ffff

let w_u32 buf n =
  if n < 0 || n > max_u32 then fail "encode: u32 out of range (%d)" n;
  Buffer.add_int32_le buf (Int32.of_int n)

let w_i64 buf n = Buffer.add_int64_le buf (Int64.of_int n)

let w_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let w_str buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

let w_bool buf b = w_u8 buf (if b then 1 else 0)

let w_value buf = function
  | Topo_sql.Value.Null -> w_u8 buf 0
  | Topo_sql.Value.Int n ->
      w_u8 buf 1;
      w_i64 buf n
  | Topo_sql.Value.Float f ->
      w_u8 buf 2;
      w_f64 buf f
  | Topo_sql.Value.Str s ->
      w_u8 buf 3;
      w_str buf s

(* ------------------------------------------------------------------ *)
(* Reader: a bounds-checked cursor over one payload                    *)

type reader = { data : string; mutable pos : int; ctx : string }

let reader ?(what = "payload") data = { data; pos = 0; ctx = what }

let offset r = r.pos

let need r n what =
  if n < 0 || r.pos + n > String.length r.data then
    fail "truncated %s: need %d byte(s) for %s at offset %d of %d" r.ctx n what r.pos
      (String.length r.data)

let r_u8 r what =
  need r 1 what;
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_u16 r what =
  need r 2 what;
  let v = String.get_uint16_le r.data r.pos in
  r.pos <- r.pos + 2;
  v

let r_u32 r what =
  need r 4 what;
  let v = Int32.to_int (String.get_int32_le r.data r.pos) in
  r.pos <- r.pos + 4;
  if v < 0 then fail "corrupt %s: negative %s (%d) at offset %d" r.ctx what v (r.pos - 4);
  v

let r_i64 r what =
  need r 8 what;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  Int64.to_int v

let r_f64 r what =
  need r 8 what;
  let v = Int64.float_of_bits (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_skip r n what =
  need r n what;
  let at = r.pos in
  r.pos <- at + n;
  at

let r_count r what =
  let n = r_u32 r what in
  (* Every counted element occupies at least one byte downstream:
     anything bigger than the remaining bytes is a corrupt length. *)
  if n > String.length r.data - r.pos then
    fail "corrupt %s: implausible %s %d (%d byte(s) remain)" r.ctx what n
      (String.length r.data - r.pos);
  n

let r_str r what =
  let n = r_count r what in
  need r n what;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_bool r what =
  match r_u8 r what with
  | 0 -> false
  | 1 -> true
  | b -> fail "corrupt %s: bad boolean %d reading %s" r.ctx b what

let r_value r what =
  match r_u8 r what with
  | 0 -> Topo_sql.Value.Null
  | 1 -> Topo_sql.Value.Int (r_i64 r what)
  | 2 -> Topo_sql.Value.Float (r_f64 r what)
  | 3 -> Topo_sql.Value.Str (r_str r what)
  | t -> fail "corrupt %s: unknown value tag %d reading %s at offset %d" r.ctx t what (r.pos - 1)

(* Explicit recursion: List.init's evaluation order is unspecified and
   the element reader advances the cursor. *)
let r_list (_ : reader) n (_ : string) f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f () :: acc) in
  go 0 []

let r_end r =
  if r.pos <> String.length r.data then
    fail "corrupt %s: %d trailing byte(s) after the last field" r.ctx (String.length r.data - r.pos)

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)

let header_length = String.length magic + 2 + 1 + 4 + 16

let frame ~kind payload =
  if kind < 0 || kind > 0xff then fail "encode: bad frame kind %d" kind;
  if String.length payload > max_payload then
    fail "encode: %s payload of %d bytes exceeds the %d-byte frame limit" (kind_name kind)
      (String.length payload) max_payload;
  let buf = Buffer.create (header_length + String.length payload) in
  Buffer.add_string buf magic;
  w_u16 buf version;
  w_u8 buf kind;
  w_u32 buf (String.length payload);
  Buffer.add_string buf (Digest.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* Validates a header already in hand and returns (kind, payload length).
   Shared by the whole-string and socket paths so both reject bad magic,
   cross-version frames and oversized lengths with the same messages. *)
let decode_header header =
  if String.length header < header_length then
    fail "truncated frame: %d byte(s), the fixed header alone is %d" (String.length header)
      header_length;
  let m = String.sub header 0 (String.length magic) in
  if m <> magic then fail "bad frame magic %S: not a toposearch wire frame (expected %S)" m magic;
  let r = reader ~what:"frame header" header in
  r.pos <- String.length magic;
  let v = r_u16 r "version" in
  if v <> version then
    fail "unsupported wire version %d (this build speaks version %d)" v version;
  let kind = r_u8 r "frame kind" in
  let len = r_u32 r "payload length" in
  if len > max_payload then
    fail "oversized frame: %s payload of %d bytes exceeds the %d-byte limit" (kind_name kind) len
      max_payload;
  let checksum = String.sub header (r.pos) 16 in
  (kind, len, checksum)

let verify_checksum ~kind ~checksum payload =
  let actual = Digest.string payload in
  if actual <> checksum then
    fail "corrupt %s frame: payload checksum mismatch (header %s, payload digests to %s)"
      (kind_name kind) (Digest.to_hex checksum) (Digest.to_hex actual)

let decode_frame data =
  let kind, len, checksum = decode_header data in
  let have = String.length data - header_length in
  if have <> len then
    fail "truncated %s frame: header promises %d payload byte(s), %d present" (kind_name kind) len
      have;
  let payload = String.sub data header_length len in
  verify_checksum ~kind ~checksum payload;
  (kind, payload)

(* ------------------------------------------------------------------ *)
(* Socket IO                                                           *)

let set_timeouts ?read_s ?write_s fd =
  (match read_s with
  | Some t -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO t
  | None -> ());
  match write_s with
  | Some t -> Unix.setsockopt_float fd Unix.SO_SNDTIMEO t
  | None -> ()

let io_error what = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      fail "%s timed out" what
  | Unix.Unix_error (e, _, _) -> fail "%s failed: %s" what (Unix.error_message e)
  | e -> raise e

let send_all fd data =
  let bytes = Bytes.unsafe_of_string data in
  let n = Bytes.length bytes in
  let written = ref 0 in
  while !written < n do
    match Unix.write fd bytes !written (n - !written) with
    | 0 -> fail "frame write made no progress at byte %d of %d" !written n
    | w -> written := !written + w
    | exception e -> io_error "frame write" e
  done

let send fd ~kind payload = send_all fd (frame ~kind payload)

(* Reads exactly [n] bytes; [at_start] distinguishes a clean EOF between
   frames (None) from a connection torn down mid-frame (Error). *)
let read_exactly fd n ~what ~at_start =
  let buf = Bytes.create n in
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < n do
    match Unix.read fd buf !got (n - !got) with
    | 0 -> eof := true
    | r -> got := !got + r
    | exception e -> io_error (Printf.sprintf "read of %s" what) e
  done;
  if !got = n then Some (Bytes.unsafe_to_string buf)
  else if !got = 0 && at_start then None
  else fail "connection closed mid-%s: got %d of %d byte(s)" what !got n

let recv fd =
  match read_exactly fd header_length ~what:"frame header" ~at_start:true with
  | None -> None
  | Some header ->
      let kind, len, checksum = decode_header header in
      let payload =
        if len = 0 then ""
        else
          match read_exactly fd len ~what:(kind_name kind ^ " frame payload") ~at_start:false with
          | Some p -> p
          | None ->
              (* Unreachable: read_exactly with ~at_start:false raises on
                 any shortfall rather than returning None. *)
              fail "connection closed before any of the %s frame payload" (kind_name kind)
      in
      verify_checksum ~kind ~checksum payload;
      Some (kind, payload)

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
      let host = String.sub s 0 i and port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 && not (String.contains host '/') -> Tcp (host, p)
      | _ -> Unix_sock s)
  | _ -> Unix_sock s

let addr_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } -> fail "no address for host %s" host
        | h -> h.Unix.h_addr_list.(0)
        | exception Not_found -> fail "unknown host %s" host
      in
      Unix.ADDR_INET (ip, port)

(* A peer that hangs up mid-conversation must surface as EPIPE on the
   next write, not as a process-killing SIGPIPE: a dropped connection is
   an expected event in the degradation protocol (router abandons a slow
   shard, shard answers a vanished client). *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)

let listen ?(backlog = 16) addr =
  ignore_sigpipe ();
  let sa = sockaddr_of addr in
  let domain = Unix.domain_of_sockaddr sa in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Unix_sock path -> if Sys.file_exists path then Unix.unlink path
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
     Unix.bind fd sa;
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     io_error (Printf.sprintf "listen on %s" (addr_to_string addr)) e);
  fd

let connect ?read_s ?write_s addr =
  ignore_sigpipe ();
  let sa = sockaddr_of addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     io_error (Printf.sprintf "connect to %s" (addr_to_string addr)) e);
  set_timeouts ?read_s ?write_s fd;
  fd
