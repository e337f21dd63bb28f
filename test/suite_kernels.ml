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

(* [key]'s chain, payloads in chain order. *)
let chain t key =
  let rec walk e acc = if e < 0 then List.rev acc else walk (Int_table.next_entry t e) (Int_table.payload t e :: acc) in
  walk (Int_table.first t key) []

let test_int_table_basics () =
  let t = Int_table.create ~capacity:4 () in
  Alcotest.(check int) "empty length" 0 (Int_table.length t);
  Alcotest.(check int) "absent first" (-1) (Int_table.first t 42);
  (* Grow far past the initial capacity with heavy key collisions. *)
  let n = 10_000 in
  for i = 0 to n - 1 do
    Int_table.add t (i mod 7) i
  done;
  Alcotest.(check int) "length counts every entry" n (Int_table.length t);
  for k = 0 to 6 do
    let expected = List.init ((n / 7) + if k < n mod 7 then 1 else 0) (fun j -> (j * 7) + k) in
    Alcotest.(check (list int)) "chain enumerates in insertion order" expected (chain t k)
  done;
  Alcotest.(check int) "still absent after growth" (-1) (Int_table.first t 7_000_000)

let test_int_table_adversarial_keys () =
  (* Keys engineered to collide in the low bits, plus extremes. *)
  let t = Int_table.create () in
  let keys = [ 0; 1 lsl 20; 2 lsl 20; min_int; max_int; -1; 0; min_int ] in
  List.iteri (fun i k -> Int_table.add t k i) keys;
  Alcotest.(check (list int)) "dup key 0 chain" [ 0; 6 ] (chain t 0);
  Alcotest.(check (list int)) "dup key min_int chain" [ 3; 7 ] (chain t min_int);
  Alcotest.(check (list int)) "max_int present" [ 4 ] (chain t max_int);
  Alcotest.(check (list int)) "-1 is a key, not the absent marker" [ 5 ] (chain t (-1))

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

(* --- pipeline equivalence ------------------------------------------------ *)

(* Random chains over four tables T0..T3 of (K int, J int, S str, X int),
   built from a seed.  K and J hold small ints so joins match; with
   probability 1/4 one key cell of one table is a float, null or string,
   which takes that column's int lane away and must split the chain
   there.  Predicates mix keyword containment (single- and multi-word)
   with comparisons. *)
let pipeline_catalog rs =
  let cat = Catalog.create () in
  let words = [| "alpha"; "beta"; "gamma"; "Zinc"; "finger"; "beta-x" |] in
  let rogue =
    if Random.State.int rs 4 = 0 then
      Some
        ( Random.State.int rs 4,
          Random.State.int rs 2,
          [| Value.Float 2.0; Value.Null; v_str "rogue"; Value.Float 2.5 |].(Random.State.int rs 4) )
    else None
  in
  for t = 0 to 3 do
    let tb =
      Catalog.create_table cat ~name:(Printf.sprintf "T%d" t)
        ~schema:
          (Schema.make
             [
               { Schema.name = "K"; ty = Schema.TInt };
               { Schema.name = "J"; ty = Schema.TInt };
               { Schema.name = "S"; ty = Schema.TStr };
               { Schema.name = "X"; ty = Schema.TInt };
             ])
        ()
    in
    let n = Random.State.int rs 25 in
    let bad_row = Random.State.int rs (max 1 n) in
    for r = 0 to n - 1 do
      let key () = v_int (Random.State.int rs 6) in
      let row =
        [|
          key ();
          key ();
          v_str
            (String.concat " "
               (List.init (1 + Random.State.int rs 3) (fun _ ->
                    words.(Random.State.int rs (Array.length words)))));
          v_int (Random.State.int rs 10);
        |]
      in
      (match rogue with Some (rt, c, v) when rt = t && r = bad_row -> row.(c) <- v | _ -> ());
      Table.insert tb row
    done
  done;
  cat

let random_pred rs =
  let contains () =
    Expr.Contains (Expr.Col 2, [| "alpha"; "zinc"; "beta"; "zinc finger"; "beta-x" |].(Random.State.int rs 5))
  in
  let cmp () =
    Expr.Cmp ([| Expr.Lt; Expr.Ge; Expr.Eq |].(Random.State.int rs 3), Expr.Col 3, Expr.Const (v_int (Random.State.int rs 10)))
  in
  match Random.State.int rs 5 with
  | 0 | 1 -> None
  | 2 -> Some (contains ())
  | 3 -> Some (cmp ())
  | _ -> Some (Expr.And [ contains (); cmp () ])

let random_table rs = Printf.sprintf "T%d" (Random.State.int rs 4)

(* A random key position among the first [nrel] relations' K/J columns. *)
let random_key rs nrel = (4 * Random.State.int rs nrel) + Random.State.int rs 2

let random_leaf rs ~grouped =
  let table = random_table rs and pred = random_pred rs in
  if grouped || Random.State.bool rs then
    Physical.OrderedScan
      { table; alias = Some "L"; order_cols = [ "X" ]; desc = Random.State.bool rs; pred; grouped }
  else Physical.Scan { table; alias = Some "L"; pred }

(* [nsteps] joins over [leaf]; [step i left] builds the i-th (1-based). *)
let rec stack left i nsteps step = if i > nsteps then left else stack (step i left) (i + 1) nsteps step

let random_chain rs =
  let nsteps = 1 + Random.State.int rs 3 in
  stack (random_leaf rs ~grouped:false) 1 nsteps (fun i left ->
      let table = random_table rs and alias = Some (Printf.sprintf "A%d" i) in
      let left_cols = [| random_key rs i |] and key = Random.State.int rs 2 in
      (* An occasional residual ends the chain mid-stack. *)
      let residual =
        if Random.State.int rs 6 = 0 then Some (Expr.Cmp (Expr.Le, Expr.Col 3, Expr.Col ((4 * i) + 3)))
        else None
      in
      if Random.State.bool rs then
        Physical.IndexNL
          {
            left;
            table;
            alias;
            table_cols = [ [| "K"; "J" |].(key) ];
            left_cols;
            pred = random_pred rs;
            residual;
          }
      else
        Physical.HashJoin
          {
            left;
            right = Physical.Scan { table; alias; pred = random_pred rs };
            left_cols;
            right_cols = [| key |];
            residual;
          })

let random_consumer rs chain =
  let rec arity = function
    | Physical.HashJoin { left; _ } | Physical.IndexNL { left; _ } -> 4 + arity left
    | _ -> 4
  in
  let width = arity chain in
  let plan =
    if Random.State.bool rs then
      Physical.Project
        {
          input = chain;
          cols =
            List.sort_uniq compare (List.init (1 + Random.State.int rs 4) (fun _ -> Random.State.int rs width));
        }
    else chain
  in
  let out = match plan with Physical.Project { cols; _ } -> List.length cols | _ -> width in
  let plan = if Random.State.bool rs then Physical.Distinct plan else plan in
  let plan =
    if Random.State.bool rs then
      Physical.Sort { input = plan; by = [ (Random.State.int rs out, Random.State.bool rs) ] }
    else plan
  in
  if Random.State.bool rs then Physical.Limit (Random.State.int rs 8, plan) else plan

(* Results with group ids, and counters, under kernels off and on; the
   lowered iterator is drained twice, so re-opening is covered too. *)
let drain_both cat plan =
  let run () =
    Counters.with_scope (fun () ->
        let acc = ref [] in
        let it = Physical.lower cat plan in
        for _ = 1 to 2 do
          Iterator.iter (fun t g -> acc := (g, Tuple.to_string t) :: !acc) it
        done;
        List.rev !acc)
  in
  (Op_kernel.with_kernels false run, Op_kernel.with_kernels true run)

let prop_pipeline_chains =
  QCheck.Test.make ~name:"pipeline chains: kernels on = off (tuples, groups, counters)" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let cat = pipeline_catalog rs in
      let plan = random_consumer rs (random_chain rs) in
      let off, on_ = drain_both cat plan in
      off = on_)

let prop_pipeline_dgj_stacks =
  QCheck.Test.make ~name:"grouped IDGJ stacks: kernels on = off under first_match_per_group"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let cat = pipeline_catalog rs in
      let nsteps = 1 + Random.State.int rs 3 in
      (* Mostly a grouped leaf under IDGJs, as the -ET plans are; an
         ungrouped leaf or an index NL step in the stack pins the group
         rules of the other operators too. *)
      let plan =
        stack (random_leaf rs ~grouped:(Random.State.int rs 4 > 0)) 1 nsteps (fun i left ->
            let table = random_table rs and alias = Some (Printf.sprintf "A%d" i) in
            let table_cols = [ [| "K"; "J" |].(Random.State.int rs 2) ] in
            let left_cols = [| random_key rs i |] and pred = random_pred rs in
            match Random.State.int rs 8 with
            | 0 -> Physical.Hdgj { left; table; alias; table_cols; left_cols; pred; residual = None }
            | 1 -> Physical.IndexNL { left; table; alias; table_cols; left_cols; pred; residual = None }
            | _ -> Physical.Idgj { left; table; alias; table_cols; left_cols; pred; residual = None })
      in
      let k = Random.State.int rs 8 in
      let run () =
        Counters.with_scope (fun () ->
            let it = Physical.lower cat plan in
            List.concat_map
              (fun _ ->
                List.map (fun (g, t) -> (g, Tuple.to_string t)) (Op_dgj.first_match_per_group it ~k))
              [ 1; 2 ])
      in
      Op_kernel.with_kernels false run = Op_kernel.with_kernels true run)

(* A non-int cell in a step's key column: the pipeline refuses the chain,
   the lowering cuts it below that step, and nothing observable moves. *)
let test_non_int_key_splits_chain () =
  let cat = join_catalog [ v_int 1; v_int 2; v_int 2 ] [ v_int 2; Value.Float 2.0; v_int 1 ] in
  let scan table = Physical.Scan { table; alias = None; pred = None } in
  let lower_join =
    Physical.HashJoin
      { left = scan "L"; right = scan "L"; left_cols = [| 0 |]; right_cols = [| 0 |]; residual = None }
  in
  let plan =
    Physical.IndexNL
      {
        left = lower_join;
        table = "R";
        alias = None;
        table_cols = [ "K" ];
        left_cols = [| 2 |];
        pred = None;
        residual = None;
      }
  in
  Alcotest.(check bool) "both joins are static pipeline steps" true
    (Physical.kernel_site cat plan = Some Physical.Kernel_index_nl
    && Physical.kernel_site cat lower_join = Some Physical.Kernel_hash_join);
  let table name = Catalog.find cat name in
  let leaf = { Op_kernel.table = table "L"; order = None; pred = None; grouped = false } in
  let step join name col outer_pos = { Op_kernel.join; table = table name; col; pred = None; outer_pos } in
  let schema = Physical.schema cat plan in
  Alcotest.(check bool) "the pipeline refuses the R step" true
    (Option.is_none
       (Op_kernel.pipeline ~schema leaf
          [| step Op_kernel.Hash_join "L" 0 0; step Op_kernel.Index_nl "R" 0 2 |]
          ~project:None));
  Alcotest.(check bool) "the pipeline takes the L step alone" true
    (Option.is_some
       (Op_kernel.pipeline ~schema:(Physical.schema cat lower_join) leaf
          [| step Op_kernel.Hash_join "L" 0 0 |] ~project:None));
  let off, on_ = drain_both cat plan in
  Alcotest.(check (list (pair int string))) "split chain: kernels on = off" (fst off) (fst on_);
  Alcotest.(check bool) "split chain: counters" true (snd off = snd on_);
  (* L⋈L has one row keyed 1 and four keyed 2; R's Float 2.0 matches
     Int 2 like R's Int 2 does: 1 + 4 * 2 rows per drain. *)
  Alcotest.(check int) "the float key still matches Int 2 in the generic join" (2 * 9)
    (List.length (fst on_))

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
  Alcotest.(check bool) "single int key scan join is a pipeline step" true
    (Physical.kernel_site cat (join [| 0 |] [| 0 |]) = Some Physical.Kernel_hash_join);
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
        QCheck_alcotest.to_alcotest prop_pipeline_chains;
        QCheck_alcotest.to_alcotest prop_pipeline_dgj_stacks;
        Alcotest.test_case "non-int key cell splits the chain" `Quick test_non_int_key_splits_chain;
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
