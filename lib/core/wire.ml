(* The binary wire protocol's framing layer, and the byte codecs every
   format of the repository is described with.

   One frame is one message between a router and a shard server:

     magic "TOPOWIRE" | version u16 | kind u8 | payload length u32
     | payload checksum (MD5, 16 raw bytes) | payload bytes

   All integers are little-endian; the header is a fixed 31 bytes so a
   reader can pull it in one blocking read and know exactly how much
   payload follows.  The checksum covers every payload byte, so a
   flipped bit in transit is a loud [Error], never a silently wrong
   answer.

   A format is described once, as an ['a codec]: one value holding both
   its writer and its reader, built from labelled primitives and a few
   combinators.  The label names the field in decode errors, with the
   offset reached.  This module knows nothing of what payloads mean, so
   it sits below [Request], which owns the request and outcome codecs
   and delegates the frame envelope here; [Shard]'s hello and every
   snapshot section are codec values too.

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
(* Primitives: little-endian writers into a [Buffer.t], and a
   bounds-checked reader over one payload                              *)

let w_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let w_u16 buf n =
  if n < 0 || n > 0xffff then fail "encode: u16 out of range (%d)" n;
  Buffer.add_uint16_le buf n

let max_u32 = 0x7fff_ffff

let w_u32 buf n =
  if n < 0 || n > max_u32 then fail "encode: u32 out of range (%d)" n;
  Buffer.add_int32_le buf (Int32.of_int n)

type reader = { data : string; mutable pos : int; ctx : string }

let reader ?(what = "payload") data = { data; pos = 0; ctx = what }

let source r = r.data

let offset r = r.pos

let r_skip r n what =
  if n < 0 || r.pos + n > String.length r.data then
    fail "truncated %s: need %d byte(s) for %s at offset %d of %d" r.ctx n what r.pos
      (String.length r.data);
  let at = r.pos in
  r.pos <- at + n;
  at

let r_u8 r what = Char.code r.data.[r_skip r 1 what]

let r_u16 r what = String.get_uint16_le r.data (r_skip r 2 what)

let r_u32 r what =
  let at = r_skip r 4 what in
  let v = Int32.to_int (String.get_int32_le r.data at) in
  if v < 0 then fail "corrupt %s: negative %s (%d) at offset %d" r.ctx what v at;
  v

let r_count r what =
  let n = r_u32 r what in
  (* Every counted element occupies at least one byte downstream:
     anything bigger than the remaining bytes is a corrupt length. *)
  if n > String.length r.data - r.pos then
    fail "corrupt %s: implausible %s %d (%d byte(s) remain)" r.ctx what n
      (String.length r.data - r.pos);
  n

(* Explicit recursion here and in [list]: List.init's evaluation order
   is unspecified and the element reader advances the cursor.  The two
   ignored arguments keep the signature the repository benchmark calls. *)
let r_list (_ : reader) n (_ : string) f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f () :: acc) in
  go 0 []

let r_end r =
  if r.pos <> String.length r.data then
    fail "corrupt %s: %d trailing byte(s) after the last field" r.ctx (String.length r.data - r.pos)

(* ------------------------------------------------------------------ *)
(* Codecs: one value per format, its writer beside its reader          *)

type 'a codec = { write : Buffer.t -> 'a -> unit; read : reader -> 'a }

let encode c v =
  let buf = Buffer.create 1024 in
  c.write buf v;
  Buffer.contents buf

let decode ?what c data =
  let r = reader ?what data in
  let v = c.read r in
  r_end r;
  v

let u8 what = { write = w_u8; read = (fun r -> r_u8 r what) }

let u32 what = { write = w_u32; read = (fun r -> r_u32 r what) }

let i64 what =
  {
    write = (fun buf n -> Buffer.add_int64_le buf (Int64.of_int n));
    read = (fun r -> Int64.to_int (String.get_int64_le r.data (r_skip r 8 what)));
  }

let f64 what =
  {
    write = (fun buf f -> Buffer.add_int64_le buf (Int64.bits_of_float f));
    read = (fun r -> Int64.float_of_bits (String.get_int64_le r.data (r_skip r 8 what)));
  }

let str what =
  {
    write =
      (fun buf s ->
        w_u32 buf (String.length s);
        Buffer.add_string buf s);
    read =
      (fun r ->
        let n = r_count r what in
        String.sub r.data (r_skip r n what) n);
  }

let unit = { write = (fun _ () -> ()); read = (fun _ -> ()) }

let literal what s =
  {
    write = (fun buf () -> Buffer.add_string buf s);
    read =
      (fun r ->
        let at = r_skip r (String.length s) what in
        let got = String.sub r.data at (String.length s) in
        if got <> s then fail "bad %s %S in %s at offset %d (expected %S)" what got r.ctx at s);
  }

let map decode encode c = { write = (fun buf v -> c.write buf (encode v)); read = (fun r -> decode (c.read r)) }

let list what c =
  {
    write =
      (fun buf l ->
        w_u32 buf (List.length l);
        List.iter (c.write buf) l);
    read =
      (fun r ->
        let n = r_count r what in
        let rec go i acc = if i = n then List.rev acc else go (i + 1) (c.read r :: acc) in
        go 0 []);
  }

(* A record is built field by field: [put] writes the fields so far and
   [take] reads them into the partially applied constructor. *)
type ('r, 'k) fields = { put : Buffer.t -> 'r -> unit; take : reader -> 'k }

let record k = { put = (fun _ _ -> ()); take = (fun _ -> k) }

let ( |+ ) f (c, get) =
  {
    put =
      (fun buf v ->
        f.put buf v;
        c.write buf (get v));
    take =
      (fun r ->
        let k = f.take r in
        k (c.read r));
  }

let seal f = { write = f.put; read = f.take }

let pair a b = seal (record (fun x y -> (x, y)) |+ (a, fst) |+ (b, snd))

let triple a b c =
  seal
    (record (fun x y z -> (x, y, z))
    |+ (a, fun (x, _, _) -> x)
    |+ (b, fun (_, y, _) -> y)
    |+ (c, fun (_, _, z) -> z))

type 'a case = Case : 'b codec * ('b -> 'a) * ('a -> 'b option) -> 'a case

let case c inject project = Case (c, inject, project)

let sum what cases =
  let cases = Array.of_list cases in
  {
    write =
      (fun buf v ->
        let rec go i =
          if i = Array.length cases then fail "encode: %s has no case for this value" what
          else
            let (Case (c, _, project)) = cases.(i) in
            match project v with
            | Some x ->
                w_u8 buf i;
                c.write buf x
            | None -> go (i + 1)
        in
        go 0);
    read =
      (fun r ->
        let t = r_u8 r what in
        if t >= Array.length cases then fail "corrupt %s: unknown %s %d at offset %d" r.ctx what t (r.pos - 1)
        else
          let (Case (c, inject, _)) = cases.(t) in
          inject (c.read r));
  }

let enum what values =
  sum what (List.map (fun v -> case unit (fun () -> v) (fun x -> if x = v then Some () else None)) values)

let option what c =
  sum what [ case unit (fun () -> None) (function None -> Some () | Some _ -> None); case c Option.some Fun.id ]

(* The knot is tied once, when [fix] returns; recursive uses then force
   an already-forced lazy value, which is safe from any domain. *)
let fix f =
  let rec knot = lazy (f self)
  and self =
    { write = (fun buf v -> (Lazy.force knot).write buf v); read = (fun r -> (Lazy.force knot).read r) }
  in
  Lazy.force knot

let value what =
  let module V = Topo_sql.Value in
  sum (what ^ " value tag")
    [
      case unit (fun () -> V.Null) (function V.Null -> Some () | _ -> None);
      case (i64 what) (fun n -> V.Int n) (function V.Int n -> Some n | _ -> None);
      case (f64 what) (fun f -> V.Float f) (function V.Float f -> Some f | _ -> None);
      case (str what) (fun s -> V.Str s) (function V.Str s -> Some s | _ -> None);
    ]

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
      (* With [~at_start:false], any shortfall raises: never [None]. *)
      let payload =
        Option.value ~default:""
          (read_exactly fd len ~what:(kind_name kind ^ " frame payload") ~at_start:false)
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
