(* Cross-cutting invariants, mostly property-based: determinism of the
   capped computation, n-query/pairwise consistency, combinatorial
   identities of the gluing enumerator, and total-order laws of the value
   lattice. *)

open Topo_core
module Value = Topo_sql.Value

(* --- determinism under tight caps -------------------------------------------- *)

let tight_caps = { Compute.max_reps_per_class = 2; max_combos_per_pair = 8; max_paths_per_class = 100000 }

let prop_sweep_matches_anchored_under_caps =
  (* The design claim behind method agreement: even when caps truncate, the
     offline sweep and the anchored recomputation select the same canonical
     sample and therefore the same topology sets. *)
  QCheck.Test.make ~name:"sweep = anchored recomputation under tight caps" ~count:8
    QCheck.(int_range 100 10_000)
    (fun seed ->
      let params =
        Biozon.Generator.scale 0.08 { Biozon.Generator.default with Biozon.Generator.seed = seed }
      in
      let cat = Biozon.Generator.generate params in
      let engine = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~caps:tight_caps ~pruning_threshold:10 () in
      let ctx = engine.Engine.ctx in
      let store = Engine.store engine ~t1:"Protein" ~t2:"DNA" in
      List.for_all
        (fun (r : Compute.pair_row) ->
          let again =
            Suite_core.recompute_row ~caps:tight_caps ctx ~a:r.Compute.a ~b:r.Compute.b
          in
          again.Compute.tids = r.Compute.tids)
        store.Store.rows)

let prop_nquery_two_ary_matches_pairwise =
  QCheck.Test.make ~name:"2-ary nquery = pairwise engine across seeds" ~count:6
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let params =
        Biozon.Generator.scale 0.08 { Biozon.Generator.default with Biozon.Generator.seed = seed }
      in
      let cat = Biozon.Generator.generate params in
      let engine = Engine.build cat ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:10 () in
      let q =
        Query.make
          (Query.keyword cat "Protein" ~col:"desc" ~kw:"enzyme")
          (Query.equals cat "DNA" ~col:"type" ~value:(Value.Str "mRNA"))
      in
      let pairwise =
        List.map fst
          (Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q))).Request.ranked
      in
      let nary =
        (Nquery.run engine.Engine.ctx ~endpoints:[ q.Query.e1; q.Query.e2 ] ~max_tuples:20000 ()).Nquery.topologies
      in
      nary = pairwise)

(* --- gluing combinatorics ------------------------------------------------------ *)

let test_glue_bell_identity () =
  (* Schema with exactly 4 distinct A-B paths through a single X-typed
     intermediate: gluings per k-subset = Bell(k) partitions of k X-slots,
     so total gluings = sum_k C(4,k) Bell(k) = 4 + 12 + 20 + 15 = 51. *)
  let s = Topo_graph.Schema_graph.create () in
  List.iter
    (fun (r1, r2) ->
      Topo_graph.Schema_graph.add_relationship s ~name:r1 ~from_:"A" ~to_:"X";
      Topo_graph.Schema_graph.add_relationship s ~name:r2 ~from_:"X" ~to_:"B")
    [ ("r1", "s1"); ("r2", "s2") ];
  (* Paths: r1-s1, r1-s2, r2-s1, r2-s2 = 4 distinct classes. *)
  let interner = Topo_util.Interner.create () in
  let r = Topo_graph.Glue.enumerate interner s ~from_:"A" ~to_:"B" ~max_len:2 () in
  Alcotest.(check int) "gluings = sum C(4,k) Bell(k)" 51 r.Topo_graph.Glue.gluings_examined

let test_glue_distinct_counts () =
  (* Same schema: count distinct canonical graphs by brute reasoning is
     harder; sanity: count is positive and bounded by gluings. *)
  let s = Topo_graph.Schema_graph.create () in
  Topo_graph.Schema_graph.add_relationship s ~name:"r" ~from_:"A" ~to_:"X";
  Topo_graph.Schema_graph.add_relationship s ~name:"q" ~from_:"X" ~to_:"B";
  let interner = Topo_util.Interner.create () in
  let r = Topo_graph.Glue.enumerate interner s ~from_:"A" ~to_:"B" ~max_len:2 () in
  (* One path only: one subset, one gluing, one topology. *)
  Alcotest.(check int) "single path" 1 r.Topo_graph.Glue.count;
  Alcotest.(check int) "single gluing" 1 r.Topo_graph.Glue.gluings_examined

let prop_glue_count_le_gluings =
  (* l <= 2 keeps the enumeration cheap; fig8's bench covers l = 3. *)
  QCheck.Test.make ~name:"distinct topologies <= gluings examined" ~count:6
    QCheck.(int_range 1 2)
    (fun l ->
      let interner = Topo_util.Interner.create () in
      let r =
        Topo_graph.Glue.enumerate interner (Biozon.Bschema.schema_graph ()) ~from_:"Protein" ~to_:"DNA"
          ~max_len:l ~collect:false ()
      in
      r.Topo_graph.Glue.count <= r.Topo_graph.Glue.gluings_examined && r.Topo_graph.Glue.count > 0)

(* --- value lattice laws ---------------------------------------------------------- *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun n -> Value.Int n) small_signed_int;
        map (fun f -> Value.Float f) (float_range (-100.0) 100.0);
        map (fun s -> Value.Str s) (string_size (int_range 0 6));
      ])

let prop_value_order_total =
  QCheck.Test.make ~name:"value compare is a total order" ~count:500
    (QCheck.make QCheck.Gen.(triple gen_value gen_value gen_value))
    (fun (a, b, c) ->
      let sgn x = compare x 0 in
      (* Antisymmetry. *)
      (sgn (Value.compare a b) = -sgn (Value.compare b a))
      (* Transitivity (on the <= relation). *)
      && (not (Value.compare a b <= 0 && Value.compare b c <= 0) || Value.compare a c <= 0))

let prop_value_hash_respects_equal =
  QCheck.Test.make ~name:"equal values hash equally" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_value gen_value))
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let suites =
  [
    ( "inv.determinism",
      [
        QCheck_alcotest.to_alcotest prop_sweep_matches_anchored_under_caps;
        QCheck_alcotest.to_alcotest prop_nquery_two_ary_matches_pairwise;
      ] );
    ( "inv.glue",
      [
        Alcotest.test_case "Bell identity" `Quick test_glue_bell_identity;
        Alcotest.test_case "single path" `Quick test_glue_distinct_counts;
        QCheck_alcotest.to_alcotest prop_glue_count_le_gluings;
      ] );
    ( "inv.values",
      [
        QCheck_alcotest.to_alcotest prop_value_order_total;
        QCheck_alcotest.to_alcotest prop_value_hash_respects_equal;
      ] );
  ]
