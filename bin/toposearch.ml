(* toposearch — command-line interface to the topology search engine.

   Subcommands:
     demo        the paper's Figure 3 example end to end
     query       run a 2-query over a synthetic Biozon instance
     topologies  list a pair's topologies ranked by a scheme
     schema      show the Biozon schema and schema paths between two types
     enumerate   count all possible topologies between two types (Sec 3.1)
     sql         evaluate a SQL query over the generated instance
     check       lint SQL queries with the physical-plan verifier
     explain     show a query's plan with estimates; --analyze executes it
                 instrumented and prints estimate-vs-actual per operator
     profile     run a query method under a trace and print the span tree
     serve       evaluate a batch of queries concurrently across domains
                 (the online serving tier) *)

open Cmdliner
module Engine = Topo_core.Engine
module Request = Topo_core.Request
module Query = Topo_core.Query
module Ranking = Topo_core.Ranking
module Nquery = Topo_core.Nquery
module Snapshot = Topo_core.Snapshot
module Obs = Topo_obs

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let scale_arg =
  Arg.(value & opt float 0.5 & info [ "scale" ] ~docv:"F" ~doc:"Scale of the synthetic Biozon instance.")

let seed_arg = Arg.(value & opt int 20070415 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")

let l_arg = Arg.(value & opt int 3 & info [ "l"; "max-len" ] ~docv:"N" ~doc:"Maximum path length (the paper's l).")

let threshold_arg =
  Arg.(value & opt int 25 & info [ "pruning-threshold" ] ~docv:"N" ~doc:"Fast-Top pruning threshold.")

let t1_arg = Arg.(value & opt string "Protein" & info [ "t1" ] ~docv:"ENTITY" ~doc:"First entity set.")

let t2_arg = Arg.(value & opt string "DNA" & info [ "t2" ] ~docv:"ENTITY" ~doc:"Second entity set.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains for the offline build (default: the machine's recommended domain count, capped \
           at 8).  Results are bit-identical for every value.")

let make_instance scale seed =
  Biozon.Generator.generate
    (Biozon.Generator.scale scale { Biozon.Generator.default with Biozon.Generator.seed = seed })

let build_engine catalog ~t1 ~t2 ~l ~threshold =
  Engine.build catalog ~pairs:[ (t1, t2) ] ~l ~pruning_threshold:threshold ()

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "Boot from a snapshot written by $(b,build -o) instead of generating the instance and \
           re-running the offline sweep.  $(b,--scale)/$(b,--seed)/$(b,--l)/$(b,--pruning-threshold) \
           are ignored; the snapshot carries its build configuration.")

let load_snapshot path =
  match Snapshot.load path with
  | engine -> engine
  | exception Snapshot.Error msg ->
      prerr_endline msg;
      exit 2

(* Either rebuild from scratch or boot from a snapshot; every online
   subcommand goes through here. *)
let engine_of ~snapshot ~scale ~seed ~l ~threshold ~t1 ~t2 =
  match snapshot with
  | Some path -> load_snapshot path
  | None ->
      let catalog = make_instance scale seed in
      build_engine catalog ~t1 ~t2 ~l ~threshold

(* ------------------------------------------------------------------ *)
(* demo                                                                 *)

let demo () =
  let catalog = Biozon.Paper_db.catalog () in
  let engine = Engine.build catalog ~pairs:[ ("Protein", "DNA") ] ~pruning_threshold:50 () in
  let q = Query.q1 catalog in
  Printf.printf "database: Figure 3 of the paper (4 proteins, 3 DNAs, 4 Unigene clusters)\n";
  Printf.printf "query: %s\n\n" (Query.to_string q);
  let r = Request.get_done (Engine.run_request engine (Request.make Engine.Full_top q)) in
  List.iter
    (fun (tid, _) -> Printf.printf "TID %d: %s\n" tid (Engine.describe engine tid))
    r.Request.ranked;
  Printf.printf "\n(these are the paper's four results T1-T4: the encodes path, the P-U-D path,\n";
  Printf.printf "and the two complex topologies of the pair (78, 215))\n";
  0

let demo_cmd = Cmd.v (Cmd.info "demo" ~doc:"Run the paper's worked example.") Term.(const demo $ const ())

(* ------------------------------------------------------------------ *)
(* build                                                                *)

let pair_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] when a <> "" && b <> "" -> Ok (a, b)
    | _ -> Error (`Msg (Printf.sprintf "bad pair %S (expected T1:T2, e.g. Protein:DNA)" s))
  in
  let print fmt (a, b) = Format.fprintf fmt "%s:%s" a b in
  Arg.conv (parse, print)

let build_run scale seed l threshold jobs pairs output shards =
  let pairs = if pairs = [] then [ ("Protein", "DNA"); ("Protein", "Interaction") ] else pairs in
  let catalog = make_instance scale seed in
  let t0 = Unix.gettimeofday () in
  let engine = Engine.build catalog ~pairs ~l ~pruning_threshold:threshold ?jobs () in
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "offline build: %d pair(s), l=%d, jobs=%d (recommended domains: %d)\n\n"
    (List.length pairs) l engine.Engine.jobs
    (Domain.recommended_domain_count ());
  List.iter
    (fun (t1, t2, (s : Topo_core.Compute.stats)) ->
      Printf.printf "%s-%s:\n" t1 t2;
      Printf.printf "  schema paths   %d\n" s.Topo_core.Compute.schema_paths;
      Printf.printf "  instance paths %d\n" s.Topo_core.Compute.instance_paths;
      Printf.printf "  connected pairs %d\n" s.Topo_core.Compute.pairs;
      Printf.printf "  unions         %d\n" s.Topo_core.Compute.unions;
      if s.Topo_core.Compute.capped_pairs > 0 then
        Printf.printf "  capped pairs   %d\n" s.Topo_core.Compute.capped_pairs)
    engine.Engine.build_stats;
  Printf.printf "\n%d distinct topologies registered\n"
    (Topo_core.Topology.count engine.Engine.ctx.Topo_core.Context.registry);
  Printf.printf "built in %.3fs\n" elapsed;
  match (output, shards) with
  | None, 1 -> 0
  | None, _ ->
      prerr_endline "--shards needs -o DIR: sliced snapshots must be written somewhere";
      2
  | Some _, n when n < 1 ->
      Printf.eprintf "--shards must be >= 1, got %d\n" n;
      2
  | Some path, 1 -> (
      match Snapshot.save engine ~path with
      | bytes ->
          Printf.printf "snapshot: %s (%d bytes, format v%d, fingerprint %s)\n" path bytes
            Snapshot.version (Engine.fingerprint engine);
          0
      | exception Snapshot.Error msg ->
          prerr_endline msg;
          2)
  | Some dir, shards -> (
      match Snapshot.save_sharded engine ~dir ~shards with
      | manifest, bytes ->
          Printf.printf "sharded snapshot: %s (%d shard(s), %d bytes total, format v%d)\n" dir
            shards bytes Snapshot.version;
          List.iter
            (fun (t1, t2, k) -> Printf.printf "  %s-%s -> shard %d\n" t1 t2 k)
            manifest.Snapshot.pairs;
          0
      | exception Snapshot.Error msg ->
          prerr_endline msg;
          2)

let build_cmd =
  let pairs =
    Arg.(
      value & opt_all pair_conv []
      & info [ "pair" ] ~docv:"T1:T2"
          ~doc:"Entity-set pair to precompute (repeatable; default Protein:DNA and Protein:Interaction).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Persist the build as a versioned binary snapshot that $(b,serve --snapshot), \
             $(b,check --snapshot) and $(b,explain --snapshot) can boot from without re-running \
             the generator or the sweep.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "With $(b,-o DIR): slice the snapshot into $(docv) pair-partitioned shards \
             ($(b,shard-K.snap) plus a $(b,manifest)), each loadable by $(b,toposearch shard) and \
             routed over by $(b,toposearch route).")
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Run the offline phase only: topology computation for each requested pair, in parallel \
          across $(b,--jobs) domains, printing per-pair sweep statistics.  With $(b,-o FILE), \
          persist the result as a snapshot for instant cold starts; add $(b,--shards N) to write \
          pair-partitioned slices for the distributed serving tier.")
    Term.(
      const build_run $ scale_arg $ seed_arg $ l_arg $ threshold_arg $ jobs_arg $ pairs $ output
      $ shards)

(* ------------------------------------------------------------------ *)
(* query                                                                *)

let method_conv =
  let parse s =
    match
      List.find_opt (fun m -> String.lowercase_ascii (Engine.method_name m) = String.lowercase_ascii s) Engine.all_methods
    with
    | Some m -> Ok m
    | None ->
        Error (`Msg (Printf.sprintf "unknown method %s (try %s)" s
                       (String.concat ", " (List.map Engine.method_name Engine.all_methods))))
  in
  let print fmt m = Format.pp_print_string fmt (Engine.method_name m) in
  Arg.conv (parse, print)

let scheme_conv =
  let parse s = match Ranking.of_name s with r -> Ok r | exception Invalid_argument _ -> Error (`Msg ("unknown scheme " ^ s)) in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Ranking.name s))

let query_run scale seed l threshold t1 t2 kw1 kw2 dna_type method_ scheme k instances =
  let catalog = make_instance scale seed in
  let engine = build_engine catalog ~t1 ~t2 ~l ~threshold in
  let endpoint entity kw extra_type =
    let base =
      match kw with
      | Some kw -> Query.keyword catalog entity ~col:"desc" ~kw
      | None -> Query.endpoint catalog entity
    in
    match extra_type with
    | Some ty when entity = "DNA" ->
        Query.conj base (Query.equals catalog entity ~col:"type" ~value:(Topo_sql.Value.Str ty))
    | _ -> base
  in
  let q = Query.make (endpoint t1 kw1 None) (endpoint t2 kw2 dna_type) in
  Printf.printf "query: %s\nmethod: %s, scheme: %s, k: %d\n\n" (Query.to_string q)
    (Engine.method_name method_) (Ranking.name scheme) k;
  let r = Request.get_done (Engine.run_request engine (Request.make ~scheme ~k method_ q)) in
  if instances then Topo_core.Report.print engine q r ()
  else
    List.iteri
      (fun i (tid, score) ->
        let score_str = match score with Some s -> Printf.sprintf " [score %.3g]" s | None -> "" in
        Printf.printf "%2d. TID %d%s\n    %s\n" (i + 1) tid score_str (Engine.describe engine tid))
      r.Request.ranked;
  Printf.printf "\n%d result(s) in %.1fms\n" (List.length r.Request.ranked) (r.Request.elapsed_s *. 1000.0);
  (match r.Request.strategy with
  | Some Topo_sql.Optimizer.Regular -> print_endline "optimizer chose: regular plan"
  | Some Topo_sql.Optimizer.Early_termination -> print_endline "optimizer chose: DGJ early-termination plan"
  | None -> ());
  0

let query_cmd =
  let kw1 = Arg.(value & opt (some string) None & info [ "kw1" ] ~docv:"WORD" ~doc:"Keyword constraint on $(b,t1)'s description.") in
  let kw2 = Arg.(value & opt (some string) None & info [ "kw2" ] ~docv:"WORD" ~doc:"Keyword constraint on $(b,t2)'s description.") in
  let dna_type = Arg.(value & opt (some string) None & info [ "dna-type" ] ~docv:"TYPE" ~doc:"Equality constraint on DNA.type (mRNA, EST, genomic).") in
  let method_ = Arg.(value & opt method_conv Engine.Fast_top_k_opt & info [ "method" ] ~docv:"M" ~doc:"Evaluation method (paper names, e.g. Fast-Top-k-ET).") in
  let scheme = Arg.(value & opt scheme_conv Ranking.Domain & info [ "scheme" ] ~docv:"S" ~doc:"Ranking scheme: Freq, Rare or Domain.") in
  let k = Arg.(value & opt int 10 & info [ "topk"; "n" ] ~docv:"N" ~doc:"Number of results for top-k methods.") in
  let instances = Arg.(value & flag & info [ "instances" ] ~doc:"Show instance pairs and witnesses per topology (the Figure 5 presentation).") in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a topology query over a synthetic Biozon instance.")
    Term.(
      const query_run $ scale_arg $ seed_arg $ l_arg $ threshold_arg $ t1_arg $ t2_arg $ kw1 $ kw2
      $ dna_type $ method_ $ scheme $ k $ instances)

(* ------------------------------------------------------------------ *)
(* topologies                                                           *)

let topologies_run scale seed l threshold t1 t2 n =
  let catalog = make_instance scale seed in
  let engine = build_engine catalog ~t1 ~t2 ~l ~threshold in
  let store = Engine.store engine ~t1 ~t2 in
  let top = Topo_core.Analysis.top_frequent store ~n in
  Printf.printf "%s-%s %d-topologies by frequency (showing %d):\n\n" t1 t2 l (List.length top);
  List.iteri
    (fun i (tid, freq) ->
      Printf.printf "%2d. TID %-4d freq %-6d %s\n" (i + 1) tid freq (Engine.describe engine tid))
    top;
  let series = Topo_core.Analysis.frequency_series store in
  let s, r2 = Topo_core.Analysis.zipf_fit series in
  Printf.printf "\n%d topologies total; frequency ~ rank^-%.2f (R^2 %.2f)\n" (Array.length series) s r2;
  0

let topologies_cmd =
  let n = Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"How many to show.") in
  Cmd.v
    (Cmd.info "topologies" ~doc:"List the topologies of an entity-set pair.")
    Term.(const topologies_run $ scale_arg $ seed_arg $ l_arg $ threshold_arg $ t1_arg $ t2_arg $ n)

(* ------------------------------------------------------------------ *)
(* schema                                                               *)

let schema_run t1 t2 l =
  let schema = Biozon.Bschema.schema_graph () in
  print_endline "entity sets:";
  List.iter (fun e -> Printf.printf "  %s\n" e) (Topo_graph.Schema_graph.entities schema);
  print_endline "relationship sets:";
  List.iter
    (fun (name, from_, to_) -> Printf.printf "  %-16s %s -- %s\n" name from_ to_)
    (Topo_graph.Schema_graph.relationships schema);
  let paths = Topo_graph.Schema_graph.paths schema ~from_:t1 ~to_:t2 ~max_len:l in
  Printf.printf "\nschema paths %s .. %s of length <= %d: %d\n" t1 t2 l (List.length paths);
  List.iter
    (fun p ->
      Printf.printf "  [%s] %s\n"
        (if Topo_core.Weak.is_weak_path p then "weak" else " ok ")
        (Topo_graph.Schema_graph.path_to_string p))
    paths;
  0

let schema_cmd =
  Cmd.v
    (Cmd.info "schema" ~doc:"Show the Biozon schema and the schema paths between two entity sets.")
    Term.(const schema_run $ t1_arg $ t2_arg $ l_arg)

(* ------------------------------------------------------------------ *)
(* enumerate                                                            *)

let enumerate_run t1 t2 l show =
  let schema = Biozon.Bschema.schema_graph () in
  let interner = Topo_util.Interner.create () in
  let r = Topo_graph.Glue.enumerate interner schema ~from_:t1 ~to_:t2 ~max_len:l ~collect:(show > 0) () in
  Printf.printf "possible %d-topologies between %s and %s:\n" l t1 t2;
  Printf.printf "  (subset x gluing) combinations: %d%s\n" r.Topo_graph.Glue.gluings_examined
    (if r.Topo_graph.Glue.truncated then " (truncated)" else "");
  Printf.printf "  distinct topology graphs:       %d\n" r.Topo_graph.Glue.count;
  List.iteri
    (fun i (g, _) ->
      if i < show then
        Printf.printf "  (%d) %s\n" (i + 1)
          (Topo_graph.Lgraph.to_string ~node_name:(Topo_util.Interner.name interner)
             ~edge_name:(Topo_util.Interner.name interner) g))
    r.Topo_graph.Glue.topologies;
  0

let enumerate_cmd =
  let show = Arg.(value & opt int 0 & info [ "show" ] ~docv:"N" ~doc:"Print the first N graphs.") in
  Cmd.v
    (Cmd.info "enumerate" ~doc:"Count all possible topologies between two entity sets (Section 3.1).")
    Term.(const enumerate_run $ t1_arg $ t2_arg $ l_arg $ show)

(* ------------------------------------------------------------------ *)
(* sql                                                                  *)

let sql_run scale seed l threshold t1 t2 query_text =
  let catalog = make_instance scale seed in
  let _engine = build_engine catalog ~t1 ~t2 ~l ~threshold in
  (match Topo_sql.Sql.render catalog query_text with
  | rendered -> print_string rendered
  | exception Topo_sql.Sql_parser.Parse_error msg -> Printf.printf "parse error: %s\n" msg
  | exception Topo_sql.Sql_binder.Bind_error msg -> Printf.printf "bind error: %s\n" msg);
  0

let sql_cmd =
  let text = Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query.") in
  Cmd.v
    (Cmd.info "sql"
       ~doc:
         "Evaluate SQL over a synthetic instance (base tables plus the derived AllTops_*/LeftTops_*/ExcpTops_*/TopInfo_* tables).")
    Term.(const sql_run $ scale_arg $ seed_arg $ l_arg $ threshold_arg $ t1_arg $ t2_arg $ text)

(* ------------------------------------------------------------------ *)
(* check                                                                *)

(* Split a `;`-separated script into statements, dropping `--` comments
   and blank statements. *)
let strip_comment line =
  let n = String.length line in
  let rec find i =
    if i + 1 >= n then None else if line.[i] = '-' && line.[i + 1] = '-' then Some i else find (i + 1)
  in
  match find 0 with Some i -> String.sub line 0 i | None -> line

let split_statements text =
  String.split_on_char '\n' text
  |> List.map strip_comment
  |> String.concat "\n"
  |> String.split_on_char ';'
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let gather_queries query_text file =
  match (query_text, file) with
  | Some q, None -> split_statements q
  | None, Some path -> (
      match open_in path with
      | ic ->
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          split_statements text
      | exception Sys_error msg ->
          prerr_endline msg;
          exit 2)
  | Some _, Some _ ->
      prerr_endline "pass either a SQL argument or --file, not both";
      exit 2
  | None, None ->
      prerr_endline "pass a SQL query or --file FILE";
      exit 2

let check_run scale seed l threshold t1 t2 snapshot query_text file =
  let queries = gather_queries query_text file in
  let engine = engine_of ~snapshot ~scale ~seed ~l ~threshold ~t1 ~t2 in
  let catalog = engine.Engine.ctx.Topo_core.Context.catalog in
  let failures = ref 0 in
  List.iter
    (fun q ->
      Printf.printf "-- %s\n" q;
      match Topo_sql.Sql.lint catalog q with
      | [] -> print_endline "ok"
      | violations ->
          incr failures;
          print_endline (Topo_sql.Plan_check.report violations)
      | exception Topo_sql.Sql_parser.Parse_error msg ->
          incr failures;
          Printf.printf "parse error: %s\n" msg
      | exception Topo_sql.Sql_lexer.Lex_error (msg, pos) ->
          incr failures;
          Printf.printf "lex error at %d: %s\n" pos msg
      | exception Topo_sql.Sql_binder.Bind_error msg ->
          incr failures;
          Printf.printf "bind error: %s\n" msg)
    queries;
  Printf.printf "%d quer%s checked, %d with violations\n" (List.length queries)
    (if List.length queries = 1 then "y" else "ies")
    !failures;
  if !failures = 0 then 0 else 1

let check_cmd =
  let text = Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query (or queries, `;`-separated).") in
  let file = Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc:"Read `;`-separated queries from a file instead.") in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Lint SQL queries: bind each one and run the physical-plan verifier (schema/arity typing, \
          ordering and grouping invariants) without executing.  Exits 1 when any query has \
          violations.")
    Term.(
      const check_run $ scale_arg $ seed_arg $ l_arg $ threshold_arg $ t1_arg $ t2_arg
      $ snapshot_arg $ text $ file)

(* ------------------------------------------------------------------ *)
(* explain                                                              *)

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let rec est_json (n : Obs.Estimate.node) =
  Obs.Json.Obj
    [
      ("operator", Obs.Json.Str n.Obs.Estimate.label);
      ("est_rows", Obs.Json.Num n.Obs.Estimate.est.Obs.Estimate.rows);
      ("est_cost", Obs.Json.Num n.Obs.Estimate.est.Obs.Estimate.cost);
      ("children", Obs.Json.Arr (List.map est_json n.Obs.Estimate.children));
    ]

let explain_run scale seed l threshold t1 t2 snapshot query_text file analyze json_out =
  let queries = gather_queries query_text file in
  let engine = engine_of ~snapshot ~scale ~seed ~l ~threshold ~t1 ~t2 in
  let catalog = engine.Engine.ctx.Topo_core.Context.catalog in
  let failures = ref 0 in
  let reports = ref [] in
  List.iter
    (fun q ->
      Printf.printf "-- %s\n" q;
      match
        if analyze then begin
          let report, _rows = Obs.Explain_analyze.of_sql catalog q in
          print_string (Obs.Explain_analyze.to_text report);
          Obs.Explain_analyze.to_json report
        end
        else begin
          let plan = Topo_sql.Sql.to_plan catalog q in
          let est = Obs.Estimate.annotate catalog plan in
          let rec render depth (n : Obs.Estimate.node) =
            Printf.printf "%s%s  est_rows=%.0f est_cost=%.1f\n"
              (String.make (2 * depth) ' ')
              n.Obs.Estimate.label n.Obs.Estimate.est.Obs.Estimate.rows
              n.Obs.Estimate.est.Obs.Estimate.cost;
            List.iter (render (depth + 1)) n.Obs.Estimate.children
          in
          render 0 est;
          est_json est
        end
      with
      | json ->
          print_newline ();
          reports := Obs.Json.Obj [ ("query", Obs.Json.Str q); ("report", json) ] :: !reports
      | exception Topo_sql.Sql_parser.Parse_error msg ->
          incr failures;
          Printf.printf "parse error: %s\n\n" msg
      | exception Topo_sql.Sql_lexer.Lex_error (msg, pos) ->
          incr failures;
          Printf.printf "lex error at %d: %s\n\n" pos msg
      | exception Topo_sql.Sql_binder.Bind_error msg ->
          incr failures;
          Printf.printf "bind error: %s\n\n" msg)
    queries;
  (match json_out with
  | Some path ->
      write_file path (Obs.Json.to_string ~pretty:true (Obs.Json.Arr (List.rev !reports)));
      Printf.printf "wrote %s\n" path
  | None -> ());
  if !failures = 0 then 0 else 1

let explain_cmd =
  let text = Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query (or queries, `;`-separated).") in
  let file = Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc:"Read `;`-separated queries from a file instead.") in
  let analyze = Arg.(value & flag & info [ "analyze" ] ~doc:"Execute the plan instrumented and print measured rows, next() calls and wall time next to the estimates, flagging operators off by more than 10x.") in
  let json_out = Arg.(value & opt (some string) None & info [ "json-out" ] ~docv:"FILE" ~doc:"Also write the per-operator report(s) as JSON.") in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show a query's physical plan with the optimizer's cardinality and cost estimates.  With \
          $(b,--analyze), execute the plan under per-operator instrumentation (EXPLAIN ANALYZE).")
    Term.(
      const explain_run $ scale_arg $ seed_arg $ l_arg $ threshold_arg $ t1_arg $ t2_arg
      $ snapshot_arg $ text $ file $ analyze $ json_out)

(* ------------------------------------------------------------------ *)
(* profile                                                              *)

let profile_run scale seed l threshold t1 t2 kw1 kw2 method_ scheme k json_out =
  let catalog = make_instance scale seed in
  let engine = build_engine catalog ~t1 ~t2 ~l ~threshold in
  let endpoint entity kw =
    match kw with
    | Some kw -> Query.keyword catalog entity ~col:"desc" ~kw
    | None -> Query.endpoint catalog entity
  in
  let q = Query.make (endpoint t1 kw1) (endpoint t2 kw2) in
  Printf.printf "query: %s\nmethod: %s, scheme: %s, k: %d\n\n" (Query.to_string q)
    (Engine.method_name method_) (Ranking.name scheme) k;
  let outcome = Engine.run_request engine ~traces:true (Request.make ~scheme ~k method_ q) in
  let r = Request.get_done outcome and trace = Option.get outcome.Request.trace in
  print_string (Obs.Trace.to_text trace);
  Printf.printf "\n%d result(s) in %.1fms\n" (List.length r.Request.ranked) (r.Request.elapsed_s *. 1000.0);
  (match json_out with
  | Some path ->
      write_file path (Obs.Json.to_string ~pretty:true (Obs.Trace.to_json trace));
      Printf.printf "wrote %s\n" path
  | None -> ());
  0

let profile_cmd =
  let kw1 = Arg.(value & opt (some string) None & info [ "kw1" ] ~docv:"WORD" ~doc:"Keyword constraint on $(b,t1)'s description.") in
  let kw2 = Arg.(value & opt (some string) None & info [ "kw2" ] ~docv:"WORD" ~doc:"Keyword constraint on $(b,t2)'s description.") in
  let method_ = Arg.(value & opt method_conv Engine.Fast_top_k_opt & info [ "method" ] ~docv:"M" ~doc:"Evaluation method (paper names, e.g. Fast-Top-k-ET).") in
  let scheme = Arg.(value & opt scheme_conv Ranking.Domain & info [ "scheme" ] ~docv:"S" ~doc:"Ranking scheme: Freq, Rare or Domain.") in
  let k = Arg.(value & opt int 10 & info [ "topk"; "n" ] ~docv:"N" ~doc:"Number of results for top-k methods.") in
  let json_out = Arg.(value & opt (some string) None & info [ "json-out" ] ~docv:"FILE" ~doc:"Also write the span tree as JSON.") in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a topology query under a trace and print the span tree of the evaluation phases \
          (plan building, optimizer choice, execution, pruned-topology checks).")
    Term.(
      const profile_run $ scale_arg $ seed_arg $ l_arg $ threshold_arg $ t1_arg $ t2_arg $ kw1
      $ kw2 $ method_ $ scheme $ k $ json_out)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)

module Serve = Topo_core.Serve

(* Workload file: one request per line,
     METHOD[; scheme[; k[; kw1[; kw2]]]]
   Empty fields take defaults (Freq, 10, no keyword); `#` starts a
   comment.  Keywords constrain the endpoint's `desc` column.  A
   malformed line is reported with its line number, skipped, and counted
   — one bad line does not abort the batch. *)
let parse_workload_line catalog ~t1 ~t2 lineno line =
  let line = match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line in
  let fields = String.split_on_char ';' line |> List.map String.trim in
  match fields with
  | [] | [ "" ] -> `Blank
  | m :: rest -> (
      let malformed msg =
        Printf.eprintf "workload line %d: %s (skipped)\n" lineno msg;
        `Malformed
      in
      let get i = Option.value ~default:"" (List.nth_opt rest i) in
      match
        List.find_opt
          (fun mm -> String.lowercase_ascii (Engine.method_name mm) = String.lowercase_ascii m)
          Engine.all_methods
      with
      | None -> malformed (Printf.sprintf "unknown method %S" m)
      | Some method_ -> (
          match
            if get 0 = "" then Some Ranking.Freq
            else try Some (Ranking.of_name (get 0)) with Invalid_argument _ -> None
          with
          | None -> malformed ("unknown scheme " ^ get 0)
          | Some scheme -> (
              match if get 1 = "" then Some 10 else int_of_string_opt (get 1) with
              | None -> malformed ("bad k " ^ get 1)
              | Some k ->
                  let ep entity kw =
                    if kw = "" then Query.endpoint catalog entity
                    else Query.keyword catalog entity ~col:"desc" ~kw
                  in
                  `Request
                    (Request.make ~scheme ~k method_
                       (Query.make (ep t1 (get 2)) (ep t2 (get 3)))))))

(* Returns the parsed requests plus the count of malformed lines skipped. *)
let read_workload catalog ~t1 ~t2 path =
  match open_in path with
  | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let skipped = ref 0 in
      let requests =
        String.split_on_char '\n' text
        |> List.mapi (fun i line -> parse_workload_line catalog ~t1 ~t2 (i + 1) line)
        |> List.filter_map (function
             | `Request r -> Some r
             | `Blank -> None
             | `Malformed ->
                 incr skipped;
                 None)
      in
      (requests, !skipped)
  | exception Sys_error msg ->
      prerr_endline msg;
      exit 2

(* Default mixed workload: all nine methods, three selectivities each. *)
let default_workload catalog ~t1 ~t2 =
  let schemes = [| Ranking.Freq; Ranking.Rare; Ranking.Domain |] in
  List.concat_map
    (fun method_ ->
      List.mapi
        (fun i kw1 ->
          let e1 = if kw1 = "" then Query.endpoint catalog t1 else Query.keyword catalog t1 ~col:"desc" ~kw:kw1 in
          let e2 = Query.endpoint catalog t2 in
          Request.make ~scheme:schemes.(i mod 3) ~k:10 method_ (Query.make e1 e2))
        [ "kinase"; "enzyme"; "" ])
    Engine.all_methods

(* Open-loop serving behind `serve --rate`: arrivals uniformly spaced at
   the offered rate, bounded admission queue, per-request wall deadlines,
   latency percentiles from the intended-start (coordinated-omission
   corrected) Hdr histogram. *)
let serve_open engine ~jobs ~traces ~cache ~max_queue ~deadline_s ~rate requests =
  let n = List.length requests in
  let r =
    Serve.exec
      (Serve.config ?jobs ~traces ?cache
         ~mode:
           (Serve.Open
              (Serve.open_config ~max_queue ?deadline_s
                 ~schedule:(fun i -> float_of_int i /. rate)
                 ()))
         ())
      engine requests
  in
  let timed = Option.get r.Serve.timed and stats = Option.get r.Serve.open_stats in
  let hdr = Topo_util.Hdr.create () in
  List.iter
    (fun (t : Serve.timed) ->
      match t.Serve.timed_outcome.Request.result with
      | Request.Done _ | Request.Partial _ ->
          Topo_util.Hdr.record hdr (int_of_float (t.Serve.latency_s *. 1e9))
      | Request.Rejected _ | Request.Failed _ -> ())
    timed;
  Printf.printf "open loop: offered %d request(s) at %.1f/s target, queue bound %d, %d worker(s)\n"
    n rate max_queue stats.Serve.open_jobs;
  Printf.printf
    "  admitted %d + rejected %d = offered %d; done %d, partial %d, expired %d, failed %d\n"
    stats.Serve.admitted stats.Serve.rejected_overload stats.Serve.offered stats.Serve.completed
    stats.Serve.partial stats.Serve.expired stats.Serve.failed;
  let pct q = float_of_int (Topo_util.Hdr.quantile hdr q) /. 1e6 in
  if Topo_util.Hdr.count hdr > 0 then
    Printf.printf "  latency (intended-start): p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n"
      (pct 0.5) (pct 0.95) (pct 0.99)
      (float_of_int (Topo_util.Hdr.max_value hdr) /. 1e6);
  (match stats.Serve.achieved_rate with
  | Some r -> Printf.printf "  achieved %.1f answered/s over %.3fs\n" r stats.Serve.wall_s
  | None -> ());
  if stats.Serve.failed > 0 then 1 else 0

(* --cache / --cache-size, shared by serve and shard.  The term checks the
   size as the command line is evaluated, before any engine build or
   snapshot read, and yields the function that attaches the cache. *)
let cache_arg =
  let use_cache =
    Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:
            "Share a result cache across the serving domains: repeated requests are answered \
             from memoized results (generation-stamped against the topology registry, so online \
             re-registration never serves a stale answer).  Results stay bit-identical to an \
             uncached run.")
  in
  let cache_size =
    Arg.(
      value & opt int 1024
      & info [ "cache-size" ] ~docv:"N"
          ~doc:"Result-cache capacity in entries (LRU eviction past this); at least 1.")
  in
  let make use_cache n =
    if n < 1 then begin
      Printf.eprintf "--cache-size must be >= 1, got %d\n" n;
      exit 2
    end;
    fun engine -> if use_cache then Some (Engine.cache ~capacity:n engine) else None
  in
  Term.(const make $ use_cache $ cache_size)

let serve_run scale seed l threshold t1 t2 snapshot jobs file repeat traces check cache_of deadline_ms max_queue rate =
  let engine = engine_of ~snapshot ~scale ~seed ~l ~threshold ~t1 ~t2 in
  let catalog = engine.Engine.ctx.Topo_core.Context.catalog in
  let base, skipped =
    match file with
    | Some path -> read_workload catalog ~t1 ~t2 path
    | None -> (default_workload catalog ~t1 ~t2, 0)
  in
  if skipped > 0 then
    Printf.printf "skipped %d malformed line%s\n" skipped (if skipped = 1 then "" else "s");
  if base = [] then begin
    prerr_endline "empty workload";
    exit 2
  end;
  let cache = cache_of engine in
  let requests = List.concat (List.init (max 1 repeat) (fun _ -> base)) in
  let deadline_s = Option.map (fun ms -> ms /. 1000.0) deadline_ms in
  match rate with
  | Some r when r > 0.0 ->
      (* The serve itself still runs; only the verification is skipped.
         Exit 3 (not 0) so CI can tell "verified" from "not verified". *)
      let code = serve_open engine ~jobs ~traces ~cache ~max_queue ~deadline_s ~rate:r requests in
      if check then begin
        prerr_endline
          "serve --check: skipped — --check applies to closed-loop serving only (open-loop \
           outcomes depend on arrival timing)";
        if code = 0 then 3 else code
      end
      else code
  | Some _ | None ->
  (* Closed loop.  --deadline-ms bounds the whole batch: every request is
     stamped with the same absolute wall deadline, measured from batch
     start, so stragglers degrade to Partial/Rejected instead of holding
     the batch open. *)
  let requests =
    match deadline_s with
    | None -> requests
    | Some d ->
        let cutoff = Unix.gettimeofday () +. d in
        List.map
          (fun (rq : Request.t) -> { rq with Request.deadline = Some (Topo_core.Budget.Wall cutoff) })
          requests
  in
  let served = Serve.exec (Serve.config ?jobs ~traces ?cache ()) engine requests in
  let outcomes = served.Serve.outcomes and stats = served.Serve.stats in
  List.iteri
    (fun i (o : Request.outcome) ->
      if i < List.length base then
        match o.Request.result with
        | Request.Done r | Request.Partial r ->
            Printf.printf "%3d. %-14s %2d result(s)%s  [tuples %d, probes %d, scanned %d]\n" (i + 1)
              (Engine.method_name o.Request.request.Request.method_)
              (List.length r.Request.ranked)
              (match o.Request.result with Request.Partial _ -> " (partial)" | _ -> "")
              o.Request.counters.Topo_sql.Iterator.Counters.tuples
              o.Request.counters.Topo_sql.Iterator.Counters.index_probes
              o.Request.counters.Topo_sql.Iterator.Counters.rows_scanned
        | Request.Rejected rj ->
            Printf.printf "%3d. %-14s REJECTED (%s)\n" (i + 1)
              (Engine.method_name o.Request.request.Request.method_)
              (Request.rejection_name rj)
        | Request.Failed e ->
            Printf.printf "%3d. %-14s ERROR %s\n" (i + 1)
              (Engine.method_name o.Request.request.Request.method_)
              (Printexc.to_string e))
    outcomes;
  if traces then begin
    print_newline ();
    List.iteri
      (fun i (o : Request.outcome) ->
        match o.Request.trace with
        | Some tr when i < List.length base ->
            Printf.printf "-- query %d (%s), %d span(s)\n%s" (i + 1)
              (Engine.method_name o.Request.request.Request.method_)
              (Obs.Trace.span_count tr) (Obs.Trace.to_text tr)
        | Some _ | None -> ())
      outcomes
  end;
  Printf.printf
    "\nserved %d quer%s (%d error%s, %d rejected, %d partial) in %.3fs on %d domain(s), jobs=%d: %s\n"
    stats.Serve.queries
    (if stats.Serve.queries = 1 then "y" else "ies")
    stats.Serve.errors
    (if stats.Serve.errors = 1 then "" else "s")
    stats.Serve.rejected stats.Serve.partials
    stats.Serve.elapsed_s stats.Serve.domains_used stats.Serve.jobs
    (match stats.Serve.throughput_qps with
    | Some qps -> Printf.sprintf "%.1f queries/s" qps
    | None -> "throughput not measurable (batch under clock resolution)");
  (match stats.Serve.cache with
  | Some c ->
      let r = c.Topo_core.Cache.results in
      Printf.printf "cache: %d hits, %d misses (%.0f%% hit rate), %d evictions, %d invalidations\n"
        r.Topo_core.Cache.hits r.Topo_core.Cache.misses
        (100.0 *. Topo_core.Cache.hit_rate r)
        r.Topo_core.Cache.evictions r.Topo_core.Cache.invalidations
  | None -> ());
  if check && deadline_s <> None then begin
    (* Exit 3, reason on stderr: CI must be able to distinguish "verified"
       (0) from "mismatch" (1) from "not verified at all" (3). *)
    prerr_endline
      "serve --check: skipped — --check needs deterministic outcomes and wall deadlines depend \
       on timing";
    3
  end
  else if check then begin
    (* The reference pass is sequential AND uncached, so with --cache this
       also asserts that serving from the cache changed no answer. *)
    let seq_outcomes = (Serve.exec (Serve.config ~jobs:1 ()) engine requests).Serve.outcomes in
    if Serve.fingerprint outcomes = Serve.fingerprint seq_outcomes then begin
      print_endline "determinism check: concurrent results bit-identical to jobs=1";
      0
    end
    else begin
      print_endline "determinism check FAILED: concurrent results differ from jobs=1";
      1
    end
  end
  else 0

let serve_cmd =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domains for concurrent query evaluation (default: the machine's recommended domain \
             count, capped at 8).  Results are bit-identical for every value.")
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            "Workload file: one request per line, `METHOD[; scheme[; k[; kw1[; kw2]]]]` with `#` \
             comments (see examples/workload.txt).  Default: a mixed batch of all nine methods at \
             three selectivities.")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"R" ~doc:"Serve the workload $(docv) times over (stress/throughput runs).")
  in
  let traces = Arg.(value & flag & info [ "traces" ] ~doc:"Attach a private trace to every query and print each span tree.") in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Re-run the batch at jobs=1 (sequential, uncached) and fail unless results are \
             bit-identical.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request wall deadline.  With --rate, each request's deadline runs from its \
             intended arrival instant; without, the whole batch shares one deadline from batch \
             start.  Expired requests short-circuit to a rejected outcome; top-k \
             early-termination methods caught mid-flight return a partial ranked prefix.")
  in
  let max_queue =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission-queue depth bound for open-loop serving (--rate): arrivals beyond this \
             are rejected immediately as overloaded instead of queueing without bound.")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"QPS"
          ~doc:
            "Serve open-loop: arrivals uniformly spaced at $(docv) requests/s through a bounded \
             admission queue, reporting latency percentiles measured from each request's \
             intended arrival (coordinated-omission corrected).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Evaluate a batch of topology queries concurrently across OCaml domains (the online \
          serving tier): shared read-only stores, per-query counters \
          and traces, optional shared result cache, deterministic input-order results; \
          open-loop mode (--rate) with admission control and deadlines.")
    Term.(
      const serve_run $ scale_arg $ seed_arg $ l_arg $ threshold_arg $ t1_arg $ t2_arg
      $ snapshot_arg $ jobs $ file $ repeat $ traces $ check $ cache_arg
      $ deadline_ms $ max_queue $ rate)

(* ------------------------------------------------------------------ *)
(* shard / route — the distributed serving tier                         *)

module Wire = Topo_core.Wire
module Shard = Topo_core.Shard
module Router = Topo_core.Router

let addr_conv =
  let parse s = Ok (Wire.addr_of_string s) in
  Arg.conv (parse, fun fmt a -> Format.pp_print_string fmt (Wire.addr_to_string a))

(* `shard --snapshot DIR/shard-2.snap` can usually infer its own index. *)
let shard_index_of_path path =
  let base = Filename.basename path in
  match Scanf.sscanf_opt base "shard-%d.snap%!" (fun k -> k) with
  | Some k when k >= 0 -> Some k
  | _ -> None

let shard_run snapshot socket shard_idx jobs cache_of max_inflight timeout_ms =
  let shard =
    match shard_idx with
    | Some k -> k
    | None -> (
        match shard_index_of_path snapshot with
        | Some k -> k
        | None ->
            prerr_endline
              "cannot infer the shard index from the snapshot filename; pass --shard K";
            exit 2)
  in
  let engine = load_snapshot snapshot in
  let serve = Serve.config ?jobs ?cache:(cache_of engine) () in
  match
    Shard.start ~serve ~max_inflight
      ?write_timeout_s:(Option.map (fun ms -> ms /. 1000.0) timeout_ms)
      ~shard socket engine
  with
  | t ->
      Shard.wait t;
      0
  | exception Unix.Unix_error (e, _, arg) ->
      Printf.eprintf "cannot listen on %s: %s %s\n" (Wire.addr_to_string socket)
        (Unix.error_message e) arg;
      2

let shard_cmd =
  let snapshot =
    Arg.(
      required
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:"The slice to serve: a $(b,shard-K.snap) written by $(b,build -o DIR --shards N).")
  in
  let socket =
    Arg.(
      required
      & opt (some addr_conv) None
      & info [ "socket" ] ~docv:"ADDR"
          ~doc:"Listen address: a Unix-domain socket path, or $(i,HOST:PORT) for TCP.")
  in
  let shard_idx =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard" ] ~docv:"K"
          ~doc:"Shard index announced in the hello frame (default: parsed from the snapshot \
                filename).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Evaluation domains for this shard's pool.")
  in
  let max_inflight =
    Arg.(
      value & opt int 256
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Bound on concurrently evaluating requests across all connections; batches past it \
             are answered $(b,Rejected Overloaded) instead of queueing.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Socket write timeout (default 30000).")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Serve one snapshot slice over the binary wire protocol (Unix-domain or TCP socket): \
          the server half of the distributed serving tier.  Runs until killed.")
    Term.(
      const shard_run $ snapshot $ socket $ shard_idx $ jobs $ cache_arg
      $ max_inflight $ timeout_ms)

let route_run manifest_dir sockets t1 t2 file repeat check_snapshot timeout_ms retries =
  let manifest =
    match Snapshot.load_manifest manifest_dir with
    | m -> m
    | exception Snapshot.Error msg ->
        prerr_endline msg;
        exit 2
  in
  if List.length sockets <> manifest.Snapshot.shards then begin
    Printf.eprintf "manifest names %d shard(s) but %d --socket address(es) were given\n"
      manifest.Snapshot.shards (List.length sockets);
    exit 2
  end;
  (* The workload needs a catalog for endpoint/keyword binding; the full
     snapshot (when checking) or any slice works — slices keep every base
     table and drop only other shards' derived tables. *)
  let reference = Option.map load_snapshot check_snapshot in
  let catalog_engine =
    match reference with
    | Some e -> e
    | None -> load_snapshot (Snapshot.shard_path ~dir:manifest_dir 0)
  in
  let catalog = catalog_engine.Engine.ctx.Topo_core.Context.catalog in
  let base, skipped =
    match file with
    | Some path -> read_workload catalog ~t1 ~t2 path
    | None -> (default_workload catalog ~t1 ~t2, 0)
  in
  if skipped > 0 then
    Printf.printf "skipped %d malformed line%s\n" skipped (if skipped = 1 then "" else "s");
  if base = [] then begin
    prerr_endline "empty workload";
    exit 2
  end;
  let requests = List.concat (List.init (max 1 repeat) (fun _ -> base)) in
  let router =
    Router.create ~manifest ~addrs:(Array.of_list sockets)
      ?timeout_s:(Option.map (fun ms -> ms /. 1000.0) timeout_ms)
      ?retries ()
  in
  let t0 = Unix.gettimeofday () in
  match Router.exec router requests with
  | exception Wire.Error msg ->
      Router.close router;
      prerr_endline msg;
      2
  | outcomes ->
      let elapsed = Unix.gettimeofday () -. t0 in
      Router.close router;
      let count p = List.length (List.filter p outcomes) in
      let done_ = count (fun o -> match o.Request.result with Request.Done _ -> true | _ -> false) in
      let partial = count (fun o -> match o.Request.result with Request.Partial _ -> true | _ -> false) in
      let rejected = count (fun o -> match o.Request.result with Request.Rejected _ -> true | _ -> false) in
      let failed = count (fun o -> match o.Request.result with Request.Failed _ -> true | _ -> false) in
      List.iteri
        (fun i (o : Request.outcome) ->
          match o.Request.result with
          | Request.Failed e ->
              Printf.printf "%3d. %-14s ERROR %s\n" (i + 1)
                (Engine.method_name o.Request.request.Request.method_)
                (Printexc.to_string e)
          | _ -> ())
        outcomes;
      Printf.printf
        "routed %d request(s) over %d shard(s) in %.3fs: %d done, %d partial, %d rejected, %d \
         failed\n"
        (List.length requests) manifest.Snapshot.shards elapsed done_ partial rejected failed;
      let check_code =
        match reference with
        | None -> 0
        | Some engine ->
            (* Sharded ≡ single-process: the distributed tier's answer for
               the whole batch must be bit-identical to one local engine
               at jobs=1. *)
            let local = (Serve.exec (Serve.config ~jobs:1 ()) engine requests).Serve.outcomes in
            if Serve.fingerprint outcomes = Serve.fingerprint local then begin
              print_endline "distribution check: sharded results bit-identical to single-process jobs=1";
              0
            end
            else begin
              print_endline "distribution check FAILED: sharded results differ from single-process";
              1
            end
      in
      if failed > 0 && check_code = 0 then 1 else check_code

let route_cmd =
  let manifest =
    Arg.(
      required
      & opt (some string) None
      & info [ "manifest" ] ~docv:"DIR"
          ~doc:"The sharded snapshot directory written by $(b,build -o DIR --shards N).")
  in
  let sockets =
    Arg.(
      non_empty & opt_all addr_conv []
      & info [ "socket" ] ~docv:"ADDR"
          ~doc:"Shard address, repeated once per shard $(i,in shard order) (Unix path or \
                $(i,HOST:PORT)).")
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Workload file (same format as $(b,serve --file)); default: the mixed \
                nine-method batch.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"R" ~doc:"Route the workload $(docv) times over.")
  in
  let check_snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-snapshot" ] ~docv:"FILE"
          ~doc:
            "Also evaluate the batch locally from this $(i,unsliced) snapshot at jobs=1 and fail \
             unless the routed results are bit-identical — the distributed tier's correctness \
             gate.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-shard socket timeout (default 60000); must cover a whole sub-batch's evaluation.")
  in
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"N" ~doc:"Connect-time retries while a shard is still binding.")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Scatter-gather a workload over running $(b,toposearch shard) servers: requests are \
          routed by the manifest's pair partition, evaluated remotely, and merged back in input \
          order.  A dead shard degrades to $(b,Failed) outcomes for its requests only.")
    Term.(
      const route_run $ manifest $ sockets $ t1_arg $ t2_arg $ file $ repeat $ check_snapshot
      $ timeout_ms $ retries)

(* ------------------------------------------------------------------ *)
(* nquery                                                               *)

let nquery_run scale seed l threshold entities kws max_tuples =
  let catalog = make_instance scale seed in
  if List.length entities < 2 then begin
    prerr_endline "need at least two --entity arguments";
    2
  end
  else begin
    let t1 = List.nth entities 0 and t2 = List.nth entities 1 in
    let engine = build_engine catalog ~t1 ~t2 ~l ~threshold in
    let endpoints =
      List.mapi
        (fun i entity ->
          match List.nth_opt kws i with
          | Some (Some kw) -> Query.keyword catalog entity ~col:"desc" ~kw
          | Some None | None -> Query.endpoint catalog entity)
        entities
    in
    let r = Nquery.run engine.Engine.ctx ~endpoints ~max_tuples () in
    Printf.printf "%d qualifying tuples (%d examined%s), %d distinct topologies:\n"
      (List.length r.Topo_core.Nquery.rows)
      r.Topo_core.Nquery.tuples_examined
      (if r.Topo_core.Nquery.truncated then ", truncated" else "")
      (List.length r.Topo_core.Nquery.topologies);
    List.iter
      (fun tid -> Printf.printf "  TID %-4d %s\n" tid (Engine.describe engine tid))
      r.Topo_core.Nquery.topologies;
    print_endline "\nsample tuples:";
    List.iteri
      (fun i (row : Topo_core.Nquery.row) ->
        if i < 10 then
          Printf.printf "  (%s) -> TIDs %s\n"
            (String.concat ", " (Array.to_list (Array.map string_of_int row.Topo_core.Nquery.entities)))
            (String.concat "," (List.map string_of_int row.Topo_core.Nquery.tids)))
      r.Topo_core.Nquery.rows;
    0
  end

let nquery_cmd =
  let entities =
    Arg.(value & opt_all string [ "Protein"; "Unigene"; "DNA" ]
         & info [ "entity" ] ~docv:"ENTITY" ~doc:"Endpoint entity set (repeatable, in order).")
  in
  let kws =
    Arg.(value & opt_all (some string) []
         & info [ "kw" ] ~docv:"WORD" ~doc:"Keyword for the i-th endpoint (repeatable; use --kw= for none).")
  in
  let max_tuples = Arg.(value & opt int 2000 & info [ "max-tuples" ] ~docv:"N" ~doc:"Tuple budget.") in
  Cmd.v
    (Cmd.info "nquery" ~doc:"Run a multi-endpoint topology query (the paper's future-work extension).")
    Term.(const nquery_run $ scale_arg $ seed_arg $ l_arg $ threshold_arg $ entities $ kws $ max_tuples)

(* ------------------------------------------------------------------ *)
(* dump / load                                                          *)

let dump_run scale seed dir =
  let catalog = make_instance scale seed in
  Topo_sql.Dump.save catalog ~dir;
  Printf.printf "saved %d tables to %s\n" (List.length (Topo_sql.Catalog.tables catalog)) dir;
  0

let dump_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Output directory.") in
  Cmd.v
    (Cmd.info "dump" ~doc:"Generate a synthetic instance and save it as .tbl files.")
    Term.(const dump_run $ scale_arg $ seed_arg $ dir)

(* ------------------------------------------------------------------ *)

let main_cmd =
  Cmd.group
    (Cmd.info "toposearch" ~version:"1.0.0"
       ~doc:"Topology search over biological databases (Guo, Shanmugasundaram, Yona).")
    [
      demo_cmd;
      build_cmd;
      query_cmd;
      topologies_cmd;
      schema_cmd;
      enumerate_cmd;
      sql_cmd;
      check_cmd;
      explain_cmd;
      profile_cmd;
      serve_cmd;
      shard_cmd;
      route_cmd;
      nquery_cmd;
      dump_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
