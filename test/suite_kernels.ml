(* The int-specialized execution kernels (Op_kernel / Int_table): the
   open-addressing multimap's growth, collision and chain-order contracts;
   selection vectors; and — the load-bearing property — bit-identical
   results AND work counters between kernel-enabled and kernel-disabled
   execution, from single handcrafted joins with adversarial key values up
   to full nine-method serve batches, on built and snapshot-loaded
   engines. *)

open Topo_sql
module Engine = Topo_core.Engine
module Serve = Topo_core.Serve
module Request = Topo_core.Request
module Query = Topo_core.Query
module Ranking = Topo_core.Ranking
module Context = Topo_core.Context
module Counters = Iterator.Counters

let v_int n = Value.Int n
let v_str s = Value.Str s

(* --- Int_table ----------------------------------------------------------- *)

let test_int_table_basics () =
  let t = Int_table.create ~capacity:4 () in
  Alcotest.(check int) "empty length" 0 (Int_table.length t);
  Alcotest.(check int) "absent first" (-1) (Int_table.first t 42);
  Alcotest.(check int) "absent count" 0 (Int_table.count t 42);
  (* Grow far past the initial capacity with heavy key collisions. *)
  let n = 10_000 in
  for i = 0 to n - 1 do
    Int_table.add t (i mod 7) i
  done;
  Alcotest.(check int) "length counts every entry" n (Int_table.length t);
  for k = 0 to 6 do
    let expected = List.init ((n / 7) + if k < n mod 7 then 1 else 0) (fun j -> (j * 7) + k) in
    Alcotest.(check int) "count = chain length" (List.length expected) (Int_table.count t k);
    let chain = ref [] in
    let e = ref (Int_table.first t k) in
    while !e >= 0 do
      Alcotest.(check int) "entry key" k (Int_table.key_at t !e);
      chain := Int_table.payload t !e :: !chain;
      e := Int_table.next_entry t !e
    done;
    Alcotest.(check (list int)) "chain enumerates in insertion order" expected (List.rev !chain)
  done;
  Alcotest.(check int) "still absent after growth" (-1) (Int_table.first t 7_000_000)

let test_int_table_adversarial_keys () =
  (* Keys engineered to collide in the low bits, plus extremes. *)
  let t = Int_table.create () in
  let keys = [ 0; 1 lsl 20; 2 lsl 20; min_int; max_int; -1; 0; min_int ] in
  List.iteri (fun i k -> Int_table.add t k i) keys;
  Alcotest.(check int) "dup key 0 chain" 2 (Int_table.count t 0);
  Alcotest.(check int) "dup key min_int chain" 2 (Int_table.count t min_int);
  Alcotest.(check int) "max_int present" 4 (Int_table.payload t (Int_table.first t max_int));
  let order = ref [] in
  Int_table.iter_entries (fun _ p -> order := p :: !order) t;
  Alcotest.(check (list int)) "iter_entries is global insertion order"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ] (List.rev !order)

let test_vec () =
  let v = Int_table.Vec.create ~capacity:1 () in
  for i = 0 to 999 do
    Int_table.Vec.push v (i * 3)
  done;
  Alcotest.(check int) "length" 1000 (Int_table.Vec.length v);
  Alcotest.(check int) "get" 2997 (Int_table.Vec.get v 999);
  Alcotest.(check bool) "out of bounds get raises" true
    (match Int_table.Vec.get v 1000 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- selection vectors --------------------------------------------------- *)

let test_select () =
  let schema = Schema.make [ { Schema.name = "ID"; ty = Schema.TInt }; { Schema.name = "m"; ty = Schema.TInt } ] in
  let table = Table.create ~name:"S" ~schema () in
  for i = 0 to 99 do
    Table.insert table [| v_int i; v_int (i mod 3) |]
  done;
  let pred = Expr.Cmp (Expr.Eq, Expr.Col 1, Expr.Const (v_int 0)) in
  let sv = Op_kernel.select table pred in
  Alcotest.(check (list int)) "selected row numbers in row order"
    (List.init 34 (fun j -> j * 3))
    (Int_table.Vec.to_list sv)

(* --- kernel vs generic joins --------------------------------------------- *)

(* Tables with {e declared} int key columns but arbitrary actual cells: the
   kernels must either engage (and agree bit-for-bit) or fall back — the
   observable behavior with kernels on and off must be identical either
   way, counters included. *)
let join_catalog left_cells right_cells =
  let cat = Catalog.create () in
  let mk name cells =
    let tb =
      Catalog.create_table cat ~name
        ~schema:
          (Schema.make [ { Schema.name = "K"; ty = Schema.TInt }; { Schema.name = "V"; ty = Schema.TInt } ])
        ()
    in
    List.iteri (fun i k -> Table.insert tb [| k; v_int i |]) cells;
    tb
  in
  ignore (mk "L" left_cells);
  ignore (mk "R" right_cells);
  cat

let run_both plan cat =
  let run () =
    Counters.with_scope (fun () ->
        Physical.run cat plan |> List.map Tuple.to_string)
  in
  let off = Op_kernel.with_kernels false run in
  let on_ = Op_kernel.with_kernels true run in
  (off, on_)

let adversarial_key =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun n -> v_int n) (int_range (-3) 3));
        (2, map (fun n -> v_int n) int);
        (2, map (fun n -> Value.Float (float_of_int n)) (int_range (-3) 3));
        (1, return (Value.Float 2.5));
        (1, return (Value.Float 9007199254740992.0));
        (* 2^53 *)
        (1, return (Value.Float 9007199254740994.0));
        (1, return (Value.Float (-9007199254741000.0)));
        (1, return Value.Null);
        (1, return (v_str "rogue"));
      ])

let keys_gen = QCheck.Gen.(pair (list_size (int_bound 30) adversarial_key) (list_size (int_bound 30) adversarial_key))

let keys_arb =
  QCheck.make keys_gen ~print:(fun (l, r) ->
      let s vs = String.concat ";" (List.map Value.to_string vs) in
      Printf.sprintf "L=[%s] R=[%s]" (s l) (s r))

let prop_hash_join_kernel_identical =
  QCheck.Test.make ~name:"hash join: kernels on = off (results and counters)" ~count:200 keys_arb
    (fun (l, r) ->
      let cat = join_catalog l r in
      let plan =
        Physical.HashJoin
          {
            left = Physical.Scan { table = "L"; alias = None; pred = None };
            right = Physical.Scan { table = "R"; alias = None; pred = None };
            left_cols = [| 0 |];
            right_cols = [| 0 |];
            residual = None;
          }
      in
      run_both plan cat |> fun (off, on_) -> off = on_)

let prop_hash_join_pred_kernel_identical =
  QCheck.Test.make ~name:"hash join with build predicate and residual: kernels on = off"
    ~count:100 keys_arb (fun (l, r) ->
      let cat = join_catalog l r in
      let pred = Expr.Cmp (Expr.Ge, Expr.Col 1, Expr.Const (v_int 1)) in
      let residual = Expr.Cmp (Expr.Le, Expr.Col 1, Expr.Col 3) in
      let plan =
        Physical.HashJoin
          {
            left = Physical.Scan { table = "L"; alias = None; pred = None };
            right = Physical.Scan { table = "R"; alias = None; pred = Some pred };
            left_cols = [| 0 |];
            right_cols = [| 0 |];
            residual = Some residual;
          }
      in
      run_both plan cat |> fun (off, on_) -> off = on_)

let prop_index_nl_kernel_identical =
  QCheck.Test.make ~name:"index NL join: kernels on = off (results and counters)" ~count:200
    keys_arb (fun (l, r) ->
      let cat = join_catalog l r in
      let plan =
        Physical.IndexNL
          {
            left = Physical.Scan { table = "L"; alias = None; pred = None };
            table = "R";
            alias = None;
            table_cols = [ "K" ];
            left_cols = [| 0 |];
            pred = None;
            residual = None;
          }
      in
      run_both plan cat |> fun (off, on_) -> off = on_)

let prop_limit_kernel_identical =
  (* Early termination: the probe side must be credited per pulled row, so
     a Limit above the join sees identical counter totals. *)
  QCheck.Test.make ~name:"limited hash join: kernels on = off under early stop" ~count:100
    keys_arb (fun (l, r) ->
      let cat = join_catalog l r in
      let plan =
        Physical.Limit
          ( 2,
            Physical.HashJoin
              {
                left = Physical.Scan { table = "L"; alias = None; pred = None };
                right = Physical.Scan { table = "R"; alias = None; pred = None };
                left_cols = [| 0 |];
                right_cols = [| 0 |];
                residual = None;
              } )
      in
      run_both plan cat |> fun (off, on_) -> off = on_)

(* --- lowering and plan-check agreement ----------------------------------- *)

let test_kernel_sites () =
  let cat = join_catalog [ v_int 1 ] [ v_int 1 ] in
  let join left_cols right_cols =
    Physical.HashJoin
      {
        left = Physical.Scan { table = "L"; alias = None; pred = None };
        right = Physical.Scan { table = "R"; alias = None; pred = None };
        left_cols;
        right_cols;
        residual = None;
      }
  in
  Alcotest.(check bool) "single int key scan join is a fused kernel site" true
    (Physical.kernel_site cat (join [| 0 |] [| 0 |]) = Some Physical.Kernel_scan_hash_join);
  Alcotest.(check bool) "two-column key is not a kernel site" true
    (Physical.kernel_site cat (join [| 0; 1 |] [| 0; 1 |]) = None);
  Alcotest.(check string) "checker and lowering agree (no drift violations)" ""
    (Plan_check.report (Plan_check.verify cat (join [| 0 |] [| 0 |])))

let test_estimate_rows () =
  let cat = join_catalog [ v_int 1; v_int 2; v_int 3 ] [] in
  let scan = Physical.Scan { table = "L"; alias = None; pred = None } in
  Alcotest.(check (option int)) "scan estimate = row count" (Some 3)
    (Physical.estimate_rows cat scan);
  Alcotest.(check (option int)) "limit caps the estimate" (Some 2)
    (Physical.estimate_rows cat (Physical.Limit (2, scan)));
  Alcotest.(check (option int)) "join shape has no cheap bound" None
    (Physical.estimate_rows cat
       (Physical.HashJoin
          { left = scan; right = scan; left_cols = [| 0 |]; right_cols = [| 0 |]; residual = None }))

(* --- engine-level equivalence -------------------------------------------- *)

let paper_engine =
  lazy
    (Engine.build
       (Biozon.Paper_db.catalog ())
       ~pairs:[ ("Protein", "DNA") ]
       ~pruning_threshold:50 ())

let serve_fp (engine : Engine.t) =
  let catalog = engine.Engine.ctx.Context.catalog in
  let schemes = [ Ranking.Freq; Ranking.Rare; Ranking.Domain ] in
  let requests =
    List.mapi
      (fun i method_ ->
        Request.make
          ~scheme:(List.nth schemes (i mod 3))
          ~k:10 method_
          (Query.make (Query.endpoint catalog "Protein") (Query.endpoint catalog "DNA")))
      Engine.all_methods
  in
  Serve.fingerprint (Serve.exec (Serve.config ~jobs:1 ()) engine requests).Serve.outcomes

let test_paper_serve_kernel_identical () =
  let engine = Lazy.force paper_engine in
  let off = Op_kernel.with_kernels false (fun () -> serve_fp engine) in
  let on_ = Op_kernel.with_kernels true (fun () -> serve_fp engine) in
  Alcotest.(check string) "nine-method serve fingerprint: kernels on = off" off on_

let prop_generated_serve_kernel_identical =
  QCheck.Test.make ~name:"generated instance: serve fingerprint invariant under kernels" ~count:2
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let engine =
        Engine.build
          (Biozon.Generator.generate
             (Biozon.Generator.scale 0.08
                { Biozon.Generator.default with Biozon.Generator.seed = seed }))
          ~pairs:[ ("Protein", "DNA"); ("Protein", "Interaction") ]
          ~pruning_threshold:10 ()
      in
      Op_kernel.with_kernels false (fun () -> serve_fp engine)
      = Op_kernel.with_kernels true (fun () -> serve_fp engine))

(* A snapshot-loaded engine derives its int lanes from decoded rows: a
   decoder that turned int cells into floats would silently drop every
   query to the generic operators, which the fingerprints alone cannot
   see. *)
let test_loaded_engine_kernels_engage () =
  let engine =
    Engine.build
      (Biozon.Generator.generate
         (Biozon.Generator.scale 0.08 { Biozon.Generator.default with Biozon.Generator.seed = 7 }))
      ~pairs:[ ("Protein", "DNA"); ("Protein", "Interaction") ]
      ~pruning_threshold:10 ()
  in
  let path = Filename.temp_file "toposearch_test_kernels" ".snap" in
  let loaded =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let (_ : int) = Topo_core.Snapshot.save engine ~path in
        Topo_core.Snapshot.load path)
  in
  let catalog = engine.Engine.ctx.Context.catalog in
  let catalog' = loaded.Engine.ctx.Context.catalog in
  let indexed = ref 0 in
  List.iter
    (fun (t1, t2, _) ->
      let alltops, lefttops, excptops, topinfo = Topo_core.Store.table_names ~t1 ~t2 in
      List.iter
        (fun name ->
          let tb = Catalog.find catalog name and tb' = Catalog.find catalog' name in
          Array.iteri
            (fun ci (c : Schema.column) ->
              if c.Schema.ty = Schema.TInt then begin
                let built = Table.int_index tb ci <> None in
                if built then incr indexed;
                Alcotest.(check bool)
                  (Printf.sprintf "%s.%s: int index on loaded = on built" name c.Schema.name)
                  built
                  (Table.int_index tb' ci <> None)
              end)
            (Schema.columns (Table.schema tb)))
        [ alltops; lefttops; excptops; topinfo ])
    engine.Engine.build_stats;
  Alcotest.(check bool) "some derived int column is indexed" true (!indexed > 0);
  Alcotest.(check string) "loaded engine: nine-method serve fingerprint, kernels on = off"
    (Op_kernel.with_kernels false (fun () -> serve_fp loaded))
    (Op_kernel.with_kernels true (fun () -> serve_fp loaded))

let suites =
  [
    ( "kernels.int_table",
      [
        Alcotest.test_case "growth, collisions, chain order" `Quick test_int_table_basics;
        Alcotest.test_case "adversarial keys" `Quick test_int_table_adversarial_keys;
        Alcotest.test_case "flat int vector" `Quick test_vec;
        Alcotest.test_case "selection vector" `Quick test_select;
      ] );
    ( "kernels.equivalence",
      [
        QCheck_alcotest.to_alcotest prop_hash_join_kernel_identical;
        QCheck_alcotest.to_alcotest prop_hash_join_pred_kernel_identical;
        QCheck_alcotest.to_alcotest prop_index_nl_kernel_identical;
        QCheck_alcotest.to_alcotest prop_limit_kernel_identical;
      ] );
    ( "kernels.lowering",
      [
        Alcotest.test_case "kernel sites and drift check" `Quick test_kernel_sites;
        Alcotest.test_case "build-side row estimates" `Quick test_estimate_rows;
      ] );
    ( "kernels.serve",
      [
        Alcotest.test_case "paper db nine-method fingerprint" `Quick
          test_paper_serve_kernel_identical;
        QCheck_alcotest.to_alcotest prop_generated_serve_kernel_identical;
        Alcotest.test_case "snapshot-loaded engine: int indexes and fingerprint" `Quick
          test_loaded_engine_kernels_engage;
      ] );
  ]
