(* The binary wire protocol and the distributed serving tier: QCheck
   round-trips of requests and every outcome and failure arm, descriptive
   rejection of truncated/corrupt/cross-version/oversized frames, the
   pair partition's orientation invariance, slice/manifest round trips,
   and an in-process shard fleet behind a router — including a shard
   killed between batches, which must degrade to [Shard_unreachable]
   outcomes for its requests only while the survivors stay
   bit-identical. *)

open Topo_core
module E = Topo_sql.Expr
module V = Topo_sql.Value
module Counters = Topo_sql.Iterator.Counters

(* --- generators ----------------------------------------------------------- *)

(* NaN would break the structural-equality round-trip checks, and the
   codec makes no promise about it — deadlines and scores are finite. *)
let gen_finite_float =
  QCheck.Gen.map (fun f -> if Float.is_finite f then f else 0.5) QCheck.Gen.float

let gen_value =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return V.Null;
      QCheck.Gen.map (fun i -> V.Int i) QCheck.Gen.int;
      QCheck.Gen.map (fun f -> V.Float f) gen_finite_float;
      QCheck.Gen.map (fun s -> V.Str s) QCheck.Gen.string;
    ]

let gen_cmp = QCheck.Gen.oneofl [ E.Eq; E.Ne; E.Lt; E.Le; E.Gt; E.Ge ]

let gen_expr =
  QCheck.Gen.sized
  @@ QCheck.Gen.fix (fun self n ->
         let leaf =
           QCheck.Gen.oneof
             [
               QCheck.Gen.map (fun i -> E.Col (abs i mod 32)) QCheck.Gen.int;
               QCheck.Gen.map (fun v -> E.Const v) gen_value;
             ]
         in
         if n <= 1 then leaf
         else
           let sub = self (n / 2) in
           QCheck.Gen.oneof
             [
               leaf;
               QCheck.Gen.map3 (fun c a b -> E.Cmp (c, a, b)) gen_cmp sub sub;
               QCheck.Gen.map2 (fun a b -> E.And [ a; b ]) sub sub;
               QCheck.Gen.map2 (fun a b -> E.Or [ a; b ]) sub sub;
               QCheck.Gen.map (fun a -> E.Not a) sub;
               QCheck.Gen.map2 (fun a s -> E.Contains (a, s)) sub QCheck.Gen.string;
               QCheck.Gen.map (fun a -> E.IsNull a) sub;
             ])

let gen_endpoint =
  QCheck.Gen.map3
    (fun entity pred label -> { Query.entity; pred; label })
    QCheck.Gen.string
    (QCheck.Gen.opt gen_expr)
    QCheck.Gen.string

let gen_deadline =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return None;
      QCheck.Gen.map (fun f -> Some (Budget.Wall (Float.abs f))) gen_finite_float;
      QCheck.Gen.map (fun i -> Some (Budget.Ticks i)) QCheck.Gen.int;
    ]

let gen_request =
  let open QCheck.Gen in
  let* method_ = oneofl Engine.all_methods in
  let* e1 = gen_endpoint in
  let* e2 = gen_endpoint in
  let* scheme = oneofl [ Ranking.Freq; Ranking.Rare; Ranking.Domain ] in
  let* k = int_bound 1000 in
  let* deadline = gen_deadline in
  return { Request.method_; query = { Query.e1; e2 }; scheme; k; deadline }

let gen_result =
  let open QCheck.Gen in
  let* ranked = small_list (pair int (opt gen_finite_float)) in
  let* elapsed_s = map Float.abs gen_finite_float in
  let* method_ = oneofl Engine.all_methods in
  let* strategy =
    oneofl [ None; Some Topo_sql.Optimizer.Regular; Some Topo_sql.Optimizer.Early_termination ]
  in
  return { Request.ranked; elapsed_s; method_; strategy }

let gen_failure =
  let open QCheck.Gen in
  let str = string_small in
  oneof
    [
      (let* t1 = str in
       let* t2 = str in
       let* held = small_list (pair str str) in
       return (Request.Unknown_pair { t1; t2; held }));
      (let* shard = int_bound 64 in
       let* reason = str in
       return (Request.Shard_unreachable { shard; reason }));
      map (fun msg -> Request.Internal msg) str;
    ]

let gen_outcome =
  let open QCheck.Gen in
  let* request = gen_request in
  let* result =
    oneof
      [
        map (fun r -> Request.Done r) gen_result;
        map (fun r -> Request.Partial r) gen_result;
        oneofl [ Request.Rejected Request.Overloaded; Request.Rejected Request.Expired ];
        map (fun f -> Request.Failed f) gen_failure;
      ]
  in
  let* tuples = map abs int in
  let* index_probes = map abs int in
  let* rows_scanned = map abs int in
  let* served_by = int_bound 64 in
  let* cache = oneofl [ Request.Hit; Request.Miss; Request.Uncached ] in
  return
    {
      Request.request;
      result;
      counters = { Counters.tuples; index_probes; rows_scanned };
      served_by;
      trace = None;
      cache;
    }

(* --- request/outcome round trips ------------------------------------------ *)

(* Router and shard speak batches only, so one request or outcome crosses
   the wire as a batch-of-one frame. *)
let request_frame req = Wire.frame ~kind:Wire.kind_batch_request (Request.batch_payload [ req ])

let outcome_frame o = Wire.frame ~kind:Wire.kind_batch_outcome (Request.outcome_batch_payload [ o ])

let request_of_frame frame = Request.read_batch (Wire.decode_frame frame)

let outcomes_of_frame frame = Request.read_outcome_batch (Wire.decode_frame frame)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire: request round-trips structurally" ~count:300
    (QCheck.make gen_request) (fun req ->
      request_of_frame (request_frame req) = [ req ])

let prop_outcome_roundtrip_bytes =
  QCheck.Test.make ~name:"wire: outcome encode-decode-encode is byte-stable" ~count:300
    (QCheck.make gen_outcome) (fun o ->
      let wire = outcome_frame o in
      match outcomes_of_frame wire with
      | [ decoded ] -> outcome_frame decoded = wire
      | _ -> false)

let test_outcome_arms_roundtrip () =
  let req =
    Request.make ~scheme:Ranking.Rare ~k:7 ~deadline:(Budget.Ticks 123456)
      Engine.Fast_top_k_opt
      {
        Query.e1 = { Query.entity = "Protein"; pred = Some (E.Contains (E.Col 2, "kinase")); label = "P" };
        e2 = { Query.entity = "DNA"; pred = None; label = "D" };
      }
  in
  let result =
    {
      Request.ranked = [ (3, Some 0.25); (9, None); (1, Some 17.5) ];
      elapsed_s = 0.0421;
      method_ = Engine.Fast_top_k_opt;
      strategy = Some Topo_sql.Optimizer.Early_termination;
    }
  in
  let mk result =
    {
      Request.request = req;
      result;
      counters = { Counters.tuples = 42; index_probes = 7; rows_scanned = 9000 };
      served_by = 3;
      trace = None;
      cache = Request.Miss;
    }
  in
  List.iter
    (fun (name, arm) ->
      let o = mk arm in
      match outcomes_of_frame (outcome_frame o) with
      | [ back ] -> Alcotest.(check bool) (name ^ " round-trips") true (back = o)
      | _ -> Alcotest.failf "%s: not a batch of one" name)
    [
      ("done", Request.Done result);
      ("partial", Request.Partial result);
      ("rejected-overloaded", Request.Rejected Request.Overloaded);
      ("rejected-expired", Request.Rejected Request.Expired);
      ( "failed-unknown-pair",
        Request.Failed
          (Request.unknown_pair ~t1:"Protein" ~t2:"Protein"
             [ ("Protein", "Interaction"); ("Protein", "DNA") ]) );
      ( "failed-shard-unreachable",
        Request.Failed (Request.Shard_unreachable { shard = 2; reason = "connection refused" }) );
      ("failed-internal", Request.Failed (Request.Internal "Not_found"));
    ]

(* --- frame rejection ------------------------------------------------------ *)

let expect_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Wire.Error, got a value" name
  | exception Wire.Error msg ->
      Alcotest.(check bool) (name ^ " error is descriptive") true (String.length msg > 10)

let sample_frame () =
  let ep entity = { Query.entity; pred = None; label = entity } in
  request_frame (Request.make Engine.Sql (Query.make (ep "A") (ep "B")))

(* Frame layout: magic 8 | version u16 | kind u8 | length u32 | MD5 16. *)
let patch frame off bytes =
  let b = Bytes.of_string frame in
  String.iteri (fun i c -> Bytes.set b (off + i) c) bytes;
  Bytes.to_string b

let test_frame_rejections () =
  let frame = sample_frame () in
  expect_error "truncated frame" (fun () ->
      Wire.decode_frame (String.sub frame 0 (String.length frame - 3)));
  expect_error "truncated header" (fun () -> Wire.decode_frame (String.sub frame 0 10));
  expect_error "bad magic" (fun () -> Wire.decode_frame (patch frame 0 "NOTAWIRE"));
  expect_error "cross-version header" (fun () ->
      Wire.decode_frame (patch frame 8 "\xff\x7f"));
  expect_error "oversized payload length" (fun () ->
      Wire.decode_frame (patch frame 11 "\xff\xff\xff\x7f"));
  expect_error "corrupt checksum" (fun () ->
      let off = String.length frame - 1 in
      Wire.decode_frame (patch frame off (String.make 1 (Char.chr (Char.code frame.[off] lxor 1)))));
  (* Valid frame of the wrong kind must be refused by the typed decoder. *)
  expect_error "kind mismatch" (fun () ->
      outcomes_of_frame (sample_frame ()))

let test_reader_bounds () =
  let r = Wire.reader "\x05" in
  expect_error "string past the payload end" (fun () -> (Wire.str "field").Wire.read r);
  let r2 = Wire.reader "\x01\x02" in
  ignore ((Wire.u8 "first").Wire.read r2);
  expect_error "trailing bytes rejected" (fun () -> Wire.r_end r2)

(* A k past the u32 range is refused at both ends: the encoder raises
   rather than keep its low 32 bits (2^32 + 5 would arrive as 5), and the
   workload parser reports the line. *)
let test_k_beyond_u32 () =
  let ep entity = { Query.entity; pred = None; label = entity } in
  let k = (1 lsl 32) + 5 in
  expect_error "k = 2^32 + 5" (fun () ->
      request_frame (Request.make ~k Engine.Fast_top_k (Query.make (ep "Protein") (ep "DNA"))));
  match
    Request.of_workload_line (Biozon.Paper_db.catalog ()) ~t1:"Protein" ~t2:"DNA"
      (Printf.sprintf "Fast-Top-k; Freq; %d" k)
  with
  | `Malformed msg ->
      Alcotest.(check string) "reason" "bad k 4294967301 (must be at most 2147483647)" msg
  | `Blank | `Request _ -> Alcotest.fail "k = 2^32 + 5 parsed"

(* --- pair partition and slices -------------------------------------------- *)

let test_partition_orientation () =
  for shards = 1 to 7 do
    List.iter
      (fun (t1, t2) ->
        let k = Snapshot.shard_of_pair ~shards ~t1 ~t2 in
        Alcotest.(check int)
          (Printf.sprintf "orientation-normalized at %d shards" shards)
          k
          (Snapshot.shard_of_pair ~shards ~t1:t2 ~t2:t1);
        Alcotest.(check bool) "in range" true (k >= 0 && k < shards))
      [ ("Protein", "DNA"); ("Protein", "Interaction"); ("DNA", "Unigene") ]
  done;
  match Snapshot.shard_of_pair ~shards:0 ~t1:"A" ~t2:"B" with
  | _ -> Alcotest.fail "shards=0 must be rejected"
  | exception Snapshot.Error _ -> ()

let generated_engine () =
  Engine.build
    (Biozon.Generator.generate
       (Biozon.Generator.scale 0.08 { Biozon.Generator.default with Biozon.Generator.seed = 20070415 }))
    ~pairs:[ ("Protein", "DNA"); ("Protein", "Interaction") ]
    ~pruning_threshold:10 ()

let temp_seq = ref 0

let with_temp_dir f =
  incr temp_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "topowire-%d-%d" (Unix.getpid ()) !temp_seq)
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let mixed_requests (engine : Engine.t) =
  let catalog = engine.Engine.ctx.Context.catalog in
  let schemes = [| Ranking.Freq; Ranking.Rare; Ranking.Domain |] in
  List.concat_map
    (fun t2 ->
      List.mapi
        (fun i method_ ->
          Request.make ~scheme:schemes.(i mod 3) ~k:10 method_
            (Query.make (Query.endpoint catalog "Protein") (Query.endpoint catalog t2)))
        Engine.all_methods)
    [ "DNA"; "Interaction" ]

let test_slice_manifest_roundtrip () =
  let engine = generated_engine () in
  with_temp_dir (fun dir ->
      let manifest, bytes = Snapshot.save_sharded engine ~dir ~shards:2 in
      Alcotest.(check bool) "bytes written" true (bytes > 0);
      Alcotest.(check int) "two shards" 2 manifest.Snapshot.shards;
      let reloaded = Snapshot.load_manifest dir in
      Alcotest.(check bool) "manifest round-trips" true (reloaded = manifest);
      List.iter
        (fun (t1, t2, k) ->
          Alcotest.(check (option int))
            (Printf.sprintf "manifest_shard %s-%s" t1 t2)
            (Some k)
            (Snapshot.manifest_shard reloaded ~t1 ~t2);
          Alcotest.(check (option int))
            "manifest_shard is orientation-normalized" (Some k)
            (Snapshot.manifest_shard reloaded ~t1:t2 ~t2:t1))
        manifest.Snapshot.pairs;
      Alcotest.(check (option int))
        "unknown pair is None" None
        (Snapshot.manifest_shard reloaded ~t1:"No" ~t2:"Such");
      (* Each slice loads and reports the manifest's fingerprint. *)
      Array.iteri
        (fun k fp ->
          let slice = Snapshot.load (Snapshot.shard_path ~dir k) in
          Alcotest.(check string)
            (Printf.sprintf "slice %d fingerprint" k)
            fp (Engine.fingerprint slice))
        manifest.Snapshot.fingerprints)

(* A loaded slice saves back to the very same file, class-pairs section
   included, and serves like the full engine: [save] derives the pairs
   whose classes the shared registry references. *)
let test_resaved_slice () =
  let engine =
    Engine.build
      (Biozon.Generator.generate
         (Biozon.Generator.scale 0.05
            { Biozon.Generator.default with Biozon.Generator.seed = 20070415 }))
      ~pairs:[ ("Protein", "DNA"); ("Protein", "Interaction"); ("DNA", "Interaction") ]
      ~pruning_threshold:10 ()
  in
  let requests =
    List.filter
      (fun (r : Request.t) -> r.Request.query.Query.e2.Query.entity = "Interaction")
      (mixed_requests engine)
  in
  let serve e = (Serve.exec (Serve.config ~jobs:1 ()) e requests).Serve.outcomes in
  with_temp_dir (fun dir ->
      let manifest, _ = Snapshot.save_sharded engine ~dir ~shards:2 in
      let k =
        match Snapshot.manifest_shard manifest ~t1:"Protein" ~t2:"Interaction" with
        | Some k -> k
        | None -> Alcotest.fail "Protein-Interaction not in the manifest"
      in
      let slice_path = Snapshot.shard_path ~dir k in
      let path = Filename.concat dir "resaved.snap" in
      let (_ : int) = Snapshot.save (Snapshot.load slice_path) ~path in
      let read p = In_channel.with_open_bin p In_channel.input_all in
      Alcotest.(check bool) "re-saved slice is byte-identical" true (read slice_path = read path);
      let outcomes = serve (Snapshot.load path) in
      Alcotest.(check int) "no Failed outcome" 0
        (List.length
           (List.filter
              (fun (o : Request.outcome) -> match o.Request.result with Request.Failed _ -> true | _ -> false)
              outcomes));
      Alcotest.(check string) "re-saved slice serves as the full engine"
        (Serve.fingerprint (serve engine)) (Serve.fingerprint outcomes))

(* --- seeded mutation fuzzing of the one reader ---------------------------- *)

(* One of four mutations of [s]: a bit flip, a truncation, a u32
   overwritten with a length-like value (a splice instead when [s] is
   shorter than a u32), or a chunk of [s] spliced in elsewhere.  [s]
   must not be empty. *)
let mutate rng s =
  let n = String.length s in
  let int bound = Random.State.int rng (max 1 bound) in
  match int 4 with
  | 0 ->
      let b = Bytes.of_string s in
      let i = int n in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl int 8)));
      Bytes.to_string b
  | 1 -> String.sub s 0 (int n)
  | 2 when n >= 4 ->
      let b = Bytes.of_string s in
      let at = int (n - 3) in
      let len =
        match int 5 with
        | 0 -> int 16
        | 1 -> n - at - 4 + int 3
        | 2 -> 0x7fff_ffff
        | 3 -> -1
        | _ -> Random.State.bits rng
      in
      Bytes.set_int32_le b at (Int32.of_int len);
      Bytes.to_string b
  | _ ->
      let from = int n in
      let chunk = String.sub s from (1 + int (min 64 (n - from))) in
      let dst = int (n + 1) in
      String.sub s 0 dst ^ chunk ^ String.sub s dst (n - dst)

(* Each mutant gets a fresh header (payload length and checksum), so only
   the decoder's own checks can catch it: it must raise [Snapshot.Error]
   or load, which means it passed fingerprint verification. *)
let test_snapshot_mutants () =
  let engine =
    Engine.build (Biozon.Paper_db.catalog ()) ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 ()
  in
  let path = Filename.temp_file "toposearch_fuzz" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let (_ : int) = Snapshot.save engine ~path in
      let file = In_channel.with_open_bin path In_channel.input_all in
      let r = Wire.reader file in
      let header = Snapshot_format.header.Wire.read r in
      let payload = String.sub file (Wire.offset r) header.Snapshot_format.payload_length in
      let rng = Random.State.make [| 20070415 |] in
      let rejected = ref 0 in
      for i = 1 to 1000 do
        let p = mutate rng payload in
        let b = Buffer.create (String.length file + 64) in
        Snapshot_format.header.Wire.write b
          {
            header with
            Snapshot_format.payload_length = String.length p;
            checksum = Digest.to_hex (Digest.string p);
          };
        Buffer.add_string b p;
        Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b);
        match Snapshot.load path with
        | (_ : Engine.t) -> ()
        | exception Snapshot.Error _ -> incr rejected
        | exception e ->
            Alcotest.failf "snapshot mutant %d raised %s, not Snapshot.Error" i
              (Printexc.to_string e)
      done;
      Alcotest.(check bool) "mutants are rejected" true (!rejected > 0))

(* The property every codec keeps: decoding an encoding gives the value
   back, re-encoding that gives the same bytes, and each of [mutants]
   seeded mutations of the bytes decodes to a value or raises
   [Wire.Error], never another exception. *)
let check_codec ?(equal = ( = )) ?(mutants = 25) ~rng name (encode, decode) values =
  let rejected = ref 0 in
  List.iteri
    (fun i v ->
      let bytes = encode v in
      let back = decode bytes in
      if not (equal back v) then Alcotest.failf "%s: value %d does not round-trip" name i;
      if encode back <> bytes then Alcotest.failf "%s: value %d re-encodes to other bytes" name i;
      for _ = 1 to mutants do
        let mutant = mutate rng bytes in
        match decode mutant with
        | _ -> ()
        | exception Wire.Error _ -> incr rejected
        | exception e ->
            Alcotest.failf "%s: a mutant of value %d raised %s, not Wire.Error" name i (Printexc.to_string e)
      done)
    values;
  Alcotest.(check bool) (name ^ ": mutants are rejected") true (!rejected > 0)

(* Batch-of-one request and outcome payloads, decoded as frames of their
   kind. *)
let test_payload_mutants () =
  let rng = Random.State.make [| 1901 |] in
  let one gen = List.map (fun x -> [ x ]) (QCheck.Gen.generate ~rand:rng ~n:40 gen) in
  check_codec ~rng "batch request"
    (Request.batch_payload, fun p -> Request.read_batch (Wire.kind_batch_request, p))
    (one gen_request);
  check_codec ~rng "batch outcome"
    (Request.outcome_batch_payload, fun p -> Request.read_outcome_batch (Wire.kind_batch_outcome, p))
    (one gen_outcome)

(* --- the shard fleet behind a router -------------------------------------- *)

(* [shards] ranges over 1 (the router in front of one process) up to more
   shards than the engine has pairs (some slices serve nothing). *)
let test_router_end_to_end engine requests ~local shards =
  with_temp_dir (fun dir ->
      let manifest, _ = Snapshot.save_sharded engine ~dir ~shards in
      Alcotest.(check int) "manifest shard count" shards manifest.Snapshot.shards;
      let addrs =
        Array.init shards (fun k ->
            Wire.Unix_sock (Filename.concat dir (Printf.sprintf "s%d.sock" k)))
      in
      let servers =
        Array.to_list
          (Array.init shards (fun k ->
               Shard.start
                 ~serve:(Serve.config ~jobs:2 ())
                 ~shard:k addrs.(k)
                 (Snapshot.load (Snapshot.shard_path ~dir k))))
      in
      Fun.protect
        ~finally:(fun () -> List.iter Shard.stop servers)
        (fun () ->
          let router =
            Router.create ~manifest ~addrs ~timeout_s:60.0 ~retries:2 ~backoff_s:0.02 ()
          in
          Fun.protect
            ~finally:(fun () -> Router.close router)
            (fun () ->
              let outcomes = Router.exec router requests in
              Alcotest.(check int)
                "outcome per request" (List.length requests) (List.length outcomes);
              Alcotest.(check string)
                (Printf.sprintf "%d-shard fingerprint == single-process jobs=1" shards)
                local (Serve.fingerprint outcomes);
              (* A second batch reuses the persistent connections. *)
              Alcotest.(check string)
                "second batch identical" local
                (Serve.fingerprint (Router.exec router requests)))))

let test_router_shard_counts () =
  let engine = generated_engine () in
  let requests = mixed_requests engine in
  let local =
    Serve.fingerprint (Serve.exec (Serve.config ~jobs:1 ()) engine requests).Serve.outcomes
  in
  List.iter (test_router_end_to_end engine requests ~local) [ 1; 2; 4 ]

(* A pair no shard holds is answered by the router itself with the
   unsliced engine's failure, so the fingerprints agree for it too.  An
   expired deadline is still rejected first, as the engine does. *)
let test_router_unknown_pair () =
  let engine = generated_engine () in
  let catalog = engine.Engine.ctx.Context.catalog in
  let pp =
    Query.make (Query.endpoint catalog "Protein") (Query.endpoint catalog "Protein")
  in
  let requests =
    [
      List.hd (mixed_requests engine);
      Request.make Engine.Full_top pp;
      Request.make ~deadline:(Budget.Ticks 0) Engine.Fast_top_k pp;
    ]
  in
  let expected =
    Request.Failed
      (Request.Unknown_pair
         { t1 = "Protein"; t2 = "Protein"; held = [ ("Protein", "DNA"); ("Protein", "Interaction") ] })
  in
  let local = (Serve.exec (Serve.config ~jobs:1 ()) engine requests).Serve.outcomes in
  Alcotest.(check bool) "engine names the held pairs" true
    ((List.nth local 1).Request.result = expected);
  with_temp_dir (fun dir ->
      let manifest, _ = Snapshot.save_sharded engine ~dir ~shards:2 in
      let addrs =
        Array.init 2 (fun k -> Wire.Unix_sock (Filename.concat dir (Printf.sprintf "s%d.sock" k)))
      in
      let servers =
        List.init 2 (fun k ->
            Shard.start ~serve:(Serve.config ~jobs:1 ()) ~shard:k addrs.(k)
              (Snapshot.load (Snapshot.shard_path ~dir k)))
      in
      Fun.protect
        ~finally:(fun () -> List.iter Shard.stop servers)
        (fun () ->
          let router = Router.create ~manifest ~addrs ~retries:2 ~backoff_s:0.02 () in
          Fun.protect
            ~finally:(fun () -> Router.close router)
            (fun () ->
              let routed = Router.exec router requests in
              Alcotest.(check bool) "router names the held pairs" true
                ((List.nth routed 1).Request.result = expected);
              Alcotest.(check string) "2-shard fingerprint == unsliced engine"
                (Serve.fingerprint local) (Serve.fingerprint routed))))

let test_router_survives_killed_shard () =
  let engine = generated_engine () in
  let requests = mixed_requests engine in
  with_temp_dir (fun dir ->
      let manifest, _ = Snapshot.save_sharded engine ~dir ~shards:2 in
      let dead =
        match Snapshot.manifest_shard manifest ~t1:"Protein" ~t2:"Interaction" with
        | Some k -> k
        | None -> Alcotest.fail "Protein-Interaction not in the manifest"
      in
      let addrs =
        Array.init manifest.Snapshot.shards (fun k ->
            Wire.Unix_sock (Filename.concat dir (Printf.sprintf "s%d.sock" k)))
      in
      let shards =
        Array.init manifest.Snapshot.shards (fun k ->
            Shard.start
              ~serve:(Serve.config ~jobs:1 ())
              ~shard:k addrs.(k)
              (Snapshot.load (Snapshot.shard_path ~dir k)))
      in
      Fun.protect
        ~finally:(fun () -> Array.iter Shard.stop shards)
        (fun () ->
          let router =
            Router.create ~manifest ~addrs ~timeout_s:30.0 ~retries:1 ~backoff_s:0.01 ()
          in
          Fun.protect
            ~finally:(fun () -> Router.close router)
            (fun () ->
              (* Healthy pass first, so the router holds live connections to
                 both shards when one dies. *)
              let healthy = Router.exec router requests in
              Shard.stop shards.(dead);
              let degraded = Router.exec router requests in
              Alcotest.(check int)
                "no outcome lost" (List.length requests) (List.length degraded);
              List.iter2
                (fun (h : Request.outcome) (d : Request.outcome) ->
                  let t2 = d.Request.request.Request.query.Query.e2.Query.entity in
                  if Snapshot.manifest_shard manifest ~t1:"Protein" ~t2 = Some dead then
                    match d.Request.result with
                    | Request.Failed (Request.Shard_unreachable { shard; _ }) ->
                        Alcotest.(check int) "names the dead shard" dead shard
                    | _ -> Alcotest.fail "dead shard's request must fail with Shard_unreachable"
                  else
                    Alcotest.(check string)
                      "survivor bit-identical"
                      (Serve.fingerprint [ h ])
                      (Serve.fingerprint [ d ]))
                healthy degraded)))

let suites =
  [
    ( "wire.codec",
      [
        QCheck_alcotest.to_alcotest prop_request_roundtrip;
        QCheck_alcotest.to_alcotest prop_outcome_roundtrip_bytes;
        Alcotest.test_case "all outcome arms round-trip" `Quick test_outcome_arms_roundtrip;
        Alcotest.test_case "k beyond the u32 range is refused" `Quick test_k_beyond_u32;
      ] );
    ( "wire.frames",
      [
        Alcotest.test_case "malformed frames are rejected" `Quick test_frame_rejections;
        Alcotest.test_case "reader bounds checks" `Quick test_reader_bounds;
      ] );
    ( "wire.fuzz",
      [
        Alcotest.test_case "snapshot mutants: Snapshot.Error or a verified engine" `Quick
          test_snapshot_mutants;
        Alcotest.test_case "payload mutants: Wire.Error or a value" `Quick test_payload_mutants;
      ] );
    ( "wire.shards",
      [
        Alcotest.test_case "partition is orientation-normalized" `Quick test_partition_orientation;
        Alcotest.test_case "slices and manifest round-trip" `Quick test_slice_manifest_roundtrip;
        Alcotest.test_case "a loaded slice re-saves to the same file" `Quick test_resaved_slice;
        Alcotest.test_case "router == single process" `Quick test_router_shard_counts;
        Alcotest.test_case "router survives a killed shard" `Quick test_router_survives_killed_shard;
        Alcotest.test_case "router answers an unheld pair like the engine" `Quick
          test_router_unknown_pair;
      ] );
  ]
