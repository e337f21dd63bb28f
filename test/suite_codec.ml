(* The byte formats, pinned and fuzzed.

   - codec.golden: MD5s of a snapshot, a 2-slice cut and the batch
     payloads of a fixed request/outcome set.  The formats are a
     contract with files on disk and processes on the other end of a
     socket, so any change to a single encoded byte fails here.
   - codec.property: one property for every codec — decode ∘ encode is
     the identity, re-encoding the decoded value gives the same bytes,
     and seeded byte mutations give [Wire.Error] or a value, never
     another exception.
   - codec.manifest: each refusal of [Snapshot.load_manifest], planted
     and fuzzed. *)

open Topo_core
module E = Topo_sql.Expr
module V = Topo_sql.Value
module Counters = Topo_sql.Iterator.Counters

let md5 s = Digest.to_hex (Digest.string s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_temp_dir = Suite_wire.with_temp_dir

(* --- golden bytes ---------------------------------------------------------- *)

(* Figure 3's database over its three entity pairs: a 2-slice cut puts
   topologies from one slice's sweep into the other's registry, so a
   slice carries the flagged class-pairs section. *)
let golden_engine =
  lazy
    (Engine.build (Biozon.Paper_db.catalog ())
       ~pairs:[ ("Protein", "DNA"); ("Protein", "Unigene"); ("Unigene", "DNA") ]
       ~pruning_threshold:0 ())

(* One predicate per [Expr] constructor, and every value tag. *)
let golden_preds =
  [
    None;
    Some (E.Cmp (E.Ge, E.Col 0, E.Const (V.Int 40)));
    Some (E.And [ E.Cmp (E.Ne, E.Col 0, E.Const (V.Int 78)); E.Not (E.IsNull (E.Col 1)) ]);
    Some (E.Or [ E.Contains (E.Col 1, "enzyme"); E.Cmp (E.Lt, E.Col 0, E.Const (V.Float 100.5)) ]);
    Some (E.Or [ E.Cmp (E.Eq, E.Col 1, E.Const (V.Str "mRNA")); E.IsNull (E.Const V.Null) ]);
    Some (E.Not (E.Cmp (E.Le, E.Col 0, E.Const (V.Int 0))));
    Some (E.Cmp (E.Gt, E.Col 0, E.Const (V.Int 1)));
  ]

(* A seeded request set over the three pairs: method, scheme, k and the
   two predicates drawn from a fixed stream. *)
let golden_requests () =
  let rng = Random.State.make [| 20071015 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  List.init 36 (fun _ ->
      let t1, t2 = pick [ ("Protein", "DNA"); ("Protein", "Unigene"); ("Unigene", "DNA") ] in
      let ep entity = { Query.entity; pred = pick golden_preds; label = String.sub entity 0 1 } in
      Request.make
        ~scheme:(pick [ Ranking.Freq; Ranking.Rare; Ranking.Domain ])
        ~k:(1 + Random.State.int rng 12)
        (pick Engine.all_methods)
        (Query.make (ep t1) (ep t2)))

(* The evaluated outcomes with their two run-dependent fields fixed, then
   one outcome per remaining arm: every [outcome_result] arm, every
   [failure] arm and every deadline tag. *)
let golden_outcomes requests =
  let engine = Lazy.force golden_engine in
  let fix (o : Request.outcome) =
    let fix_result (r : Request.result) = { r with Request.elapsed_s = 0.0 } in
    {
      o with
      Request.served_by = 0;
      result =
        (match o.Request.result with
        | Request.Done r -> Request.Done (fix_result r)
        | Request.Partial r -> Request.Partial (fix_result r)
        | other -> other);
    }
  in
  let evaluated = List.map (fun r -> fix (Engine.run_request engine r)) requests in
  let base = List.hd requests in
  let partial =
    {
      Request.ranked = [ (4, Some 2.5); (2, None); (7, Some 0.125) ];
      elapsed_s = 0.0;
      method_ = Engine.Fast_top_k_et;
      strategy = Some Topo_sql.Optimizer.Regular;
    }
  in
  let arm ?deadline ?(cache = Request.Uncached) result =
    {
      (Request.unevaluated ~served_by:3 result { base with Request.deadline }) with
      Request.counters = { Counters.tuples = 11; index_probes = 5; rows_scanned = 99 };
      cache;
    }
  in
  evaluated
  @ [
      arm ~deadline:(Budget.Ticks 12345) ~cache:Request.Miss (Request.Partial partial);
      arm ~deadline:(Budget.Wall 1.5e9) ~cache:Request.Hit (Request.Rejected Request.Expired);
      arm (Request.Rejected Request.Overloaded);
      arm
        (Request.Failed
           (Request.unknown_pair ~t1:"DNA" ~t2:"DNA" [ ("Protein", "DNA"); ("Unigene", "DNA") ]));
      arm (Request.Failed (Request.Shard_unreachable { shard = 1; reason = "connection refused" }));
      arm (Request.Failed (Request.Internal "Not_found"));
    ]

(* A change here is a format change: it needs a version bump
   ([Snapshot.version] or [Wire.version]), not a new digest. *)
let golden =
  [
    ("snapshot", "0aea5d4c72c1c1a54b5de81bf00ac4d8");
    ("slice 0", "d6efab08f63231738aece0bbf35b3835");
    ("slice 1", "a9ecfd99c864e07970da1e8977b487e4");
    ("manifest", "ee92c7f58c5b0c4e4754b1529277d226");
    ("batch request", "0bd99bad0adba69515b44baf0a834153");
    ("batch outcome", "ad609b543fa79c7ff8a73b38ce5b3b05");
  ]

let golden_digests () =
  let engine = Lazy.force golden_engine in
  with_temp_dir (fun dir ->
      let snap = Filename.concat dir "full.snap" in
      let (_ : int) = Snapshot.save engine ~path:snap in
      let cut = Filename.concat dir "cut" in
      let (_ : Snapshot.manifest * int) = Snapshot.save_sharded engine ~dir:cut ~shards:2 in
      let requests = golden_requests () in
      let digests =
        [
          ("snapshot", md5 (read_file snap));
          ("slice 0", md5 (read_file (Snapshot.shard_path ~dir:cut 0)));
          ("slice 1", md5 (read_file (Snapshot.shard_path ~dir:cut 1)));
          ("manifest", md5 (read_file (Filename.concat cut "manifest")));
          ("batch request", md5 (Request.batch_payload requests));
          ("batch outcome", md5 (Request.outcome_batch_payload (golden_outcomes requests)));
        ]
      in
      List.iter (fun f -> Sys.remove (Filename.concat cut f)) (Array.to_list (Sys.readdir cut));
      Unix.rmdir cut;
      digests)

let test_golden () =
  let digests = golden_digests () in
  List.iter
    (fun (name, expected) -> Alcotest.(check string) name expected (List.assoc name digests))
    golden

(* --- one property for every codec ----------------------------------------- *)

module F = Snapshot_format

let codec c = (Wire.encode c, Wire.decode c)

let test_request_outcome_codecs () =
  let rng = Random.State.make [| 4711 |] in
  Suite_wire.check_codec ~rng "request"
    (codec { Wire.write = Request.write_payload; read = Request.read_payload })
    (QCheck.Gen.generate ~rand:rng ~n:40 Suite_wire.gen_request);
  Suite_wire.check_codec ~rng "outcome"
    (codec { Wire.write = Request.write_outcome_payload; read = Request.read_outcome_payload })
    (QCheck.Gen.generate ~rand:rng ~n:40 Suite_wire.gen_outcome)

let test_hello_codec () =
  Suite_wire.check_codec ~rng:(Random.State.make [| 5 |]) "hello" (codec Shard.hello)
    [ (0, Engine.fingerprint (Lazy.force golden_engine)); (7, ""); (Wire.max_u32, String.make 40 'f') ]

(* Frame headers go through [Wire.decode_frame]: a mutant is refused by
   the header checks or the payload checksum, or is a valid frame. *)
let test_frame_codec () =
  let requests = golden_requests () in
  Suite_wire.check_codec ~rng:(Random.State.make [| 31 |]) ~mutants:200 "frame"
    ((fun (kind, payload) -> Wire.frame ~kind payload), Wire.decode_frame)
    [
      (Wire.kind_batch_request, Request.batch_payload requests);
      (Wire.kind_batch_outcome, "");
      (Wire.kind_hello, Wire.encode Shard.hello (1, "0123456789abcdef"));
    ]

(* Each section of a slice that carries every section, class pairs
   included, read in file order with the section codecs themselves. *)
let test_snapshot_section_codecs () =
  with_temp_dir (fun dir ->
      let (_ : Snapshot.manifest * int) =
        Snapshot.save_sharded (Lazy.force golden_engine) ~dir ~shards:2
      in
      let r = Wire.reader (read_file (Snapshot.shard_path ~dir 0)) in
      let header = F.header.Wire.read r in
      let interned = F.interned.Wire.read r in
      let class_keys = F.class_keys.Wire.read r in
      let catalog = F.catalog.Wire.read r in
      let topologies = F.topologies.Wire.read r in
      let build = F.build.Wire.read r in
      let stores = F.stores.Wire.read r in
      let class_pairs = F.class_pairs.Wire.read r in
      F.end_marker.Wire.read r;
      Wire.r_end r;
      Alcotest.(check int) "the slice is flagged" 1 header.F.flags;
      Alcotest.(check bool) "the slice names class pairs" true (class_pairs <> []);
      Alcotest.(check bool) "the slice prunes" true
        (List.exists (fun (_, _, pruned) -> pruned <> []) stores);
      let rng = Random.State.make [| 20070415 |] in
      let check name c v = Suite_wire.check_codec ~rng name (codec c) [ v ] in
      check "header" F.header header;
      check "intern pool" F.interned interned;
      check "class-key pool" F.class_keys class_keys;
      check "topology registry" F.topologies topologies;
      check "build config" F.build build;
      check "stores" F.stores stores;
      check "class pairs" F.class_pairs class_pairs;
      let tables c =
        List.map
          (fun tb ->
            Topo_sql.Table.
              (name tb, Topo_sql.Schema.columns (schema tb), primary_key tb, rows tb))
          (Topo_sql.Catalog.tables c)
      in
      Suite_wire.check_codec ~rng ~mutants:200 "catalog"
        ~equal:(fun a b -> tables a = tables b)
        (codec F.catalog) [ catalog ])

(* --- the manifest boundary ------------------------------------------------ *)

module J = Topo_obs.Json

let with_manifest f =
  with_temp_dir (fun dir ->
      let (_ : Snapshot.manifest * int) =
        Snapshot.save_sharded (Lazy.force golden_engine) ~dir ~shards:2
      in
      f dir (Filename.concat dir "manifest"))

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let set key v fields = List.map (fun (k, old) -> (k, if k = key then v else old)) fields

(* Rewrites the first pair's recorded shard. *)
let first_pair_shard f fields =
  match List.assoc "pairs" fields with
  | J.Arr (J.Obj pair :: rest) ->
      let s = match List.assoc "shard" pair with J.Num s -> int_of_float s | _ -> -1 in
      set "pairs" (J.Arr (J.Obj (set "shard" (J.int (f s)) pair) :: rest)) fields
  | _ -> Alcotest.fail "manifest has no pair"

let test_manifest_refusals () =
  List.iter
    (fun (name, edit, needle) ->
      with_manifest (fun dir path ->
          (match J.parse (read_file path) with
          | Ok (J.Obj fields) -> write_file path (J.to_string (J.Obj (edit fields)))
          | _ -> Alcotest.fail "manifest is not a JSON object");
          match Snapshot.load_manifest dir with
          | (_ : Snapshot.manifest) -> Alcotest.failf "%s: manifest loaded" name
          | exception Snapshot.Error msg ->
              if not (Suite_snapshot.contains ~needle msg) then
                Alcotest.failf "%s: error %S does not mention %S" name msg needle))
    [
      ("missing field", List.filter (fun (k, _) -> k <> "shards"), "missing field \"shards\"");
      ("non-integer", set "shards" (J.Num 1.5), "shards is not an integer");
      ("bad version", set "version" (J.int 3), "unsupported manifest version 3");
      ("bad partition", set "partition" (J.Str "round robin"), "uses partition \"round robin\"");
      ("pair on the wrong shard", first_pair_shard (fun s -> 1 - s), "but derives to");
      ("pair past the last shard", first_pair_shard (fun _ -> 5), "maps to shard 5 of 2");
      ("fingerprint count", set "fingerprints" (J.Arr [ J.Str "x" ]), "1 fingerprint(s) for 2 shard(s)");
    ]

let test_manifest_mutants () =
  with_manifest (fun dir path ->
      let text = read_file path in
      let rng = Random.State.make [| 20070416 |] in
      let loaded = ref 0 and refused = ref 0 in
      for i = 1 to 2000 do
        write_file path (Suite_wire.mutate rng text);
        match Snapshot.load_manifest dir with
        | m ->
            incr loaded;
            List.iter
              (fun (t1, t2, s) ->
                if Snapshot.shard_of_pair ~shards:m.Snapshot.shards ~t1 ~t2 <> s then
                  Alcotest.failf "mutant %d loaded %s-%s on shard %d" i t1 t2 s)
              m.Snapshot.pairs;
            Alcotest.(check int) "a fingerprint per shard" m.Snapshot.shards
              (Array.length m.Snapshot.fingerprints)
        | exception Snapshot.Error _ -> incr refused
        | exception e -> Alcotest.failf "manifest mutant %d raised %s" i (Printexc.to_string e)
      done;
      Alcotest.(check bool) "some mutants are refused" true (!refused > 0);
      Alcotest.(check bool) "some mutants still load" true (!loaded > 0))

let suites =
  [
    ("codec.golden", [ Alcotest.test_case "snapshot and batch bytes pinned" `Quick test_golden ]);
    ( "codec.property",
      [
        Alcotest.test_case "request and outcome payloads" `Quick test_request_outcome_codecs;
        Alcotest.test_case "shard hello" `Quick test_hello_codec;
        Alcotest.test_case "frame headers through decode_frame" `Quick test_frame_codec;
        Alcotest.test_case "every snapshot section" `Quick test_snapshot_section_codecs;
      ] );
    ( "codec.manifest",
      [
        Alcotest.test_case "each refusal names its field" `Quick test_manifest_refusals;
        Alcotest.test_case "mutants: Snapshot.Error or a consistent manifest" `Quick test_manifest_mutants;
      ] );
  ]
