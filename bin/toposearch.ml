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
     build       run the offline phase; -o writes a snapshot (or, with
                 --shards, one slice per shard plus a manifest)
     serve       evaluate a batch of queries concurrently across domains
                 (the online serving tier)
     shard       serve one snapshot slice over the binary wire protocol
     route       scatter a batch across shard servers and gather results
     nquery      run a multi-endpoint topology query
     dump        save a generated instance as .tbl files

   Every job the subcommands have in common is written once below: the
   engine boot, the SQL script runner, the workload loader, the query
   shape and the jobs=1 determinism check. *)

open Cmdliner
module Engine = Topo_core.Engine
module Request = Topo_core.Request
module Query = Topo_core.Query
module Ranking = Topo_core.Ranking
module Nquery = Topo_core.Nquery
module Snapshot = Topo_core.Snapshot
module Serve = Topo_core.Serve
module Obs = Topo_obs

(* A usage error: the message on stderr and exit 2, before any work the
   bad input would have driven. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> text
  | exception Sys_error msg -> usage_error "%s" msg

let catalog_of engine = engine.Engine.ctx.Topo_core.Context.catalog

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

(* An entity-set name, checked against the Biozon schema as the command
   line is parsed: cmdliner names the flag in the error. *)
let entity_conv =
  let names = List.map (fun e -> e.Biozon.Bschema.e_table) Biozon.Bschema.entities in
  let parse s =
    if List.mem s names then Ok s
    else Error (`Msg (Printf.sprintf "unknown entity set %s (try %s)" s (String.concat ", " names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let scale_arg =
  Arg.(value & opt float 0.5 & info [ "scale" ] ~docv:"F" ~doc:"Scale of the synthetic Biozon instance.")

let seed_arg = Arg.(value & opt int 20070415 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")

let l_arg = Arg.(value & opt int 3 & info [ "l"; "max-len" ] ~docv:"N" ~doc:"Maximum path length (the paper's l).")

let threshold_arg =
  Arg.(value & opt int 25 & info [ "pruning-threshold" ] ~docv:"N" ~doc:"Fast-Top pruning threshold.")

let t1_arg = Arg.(value & opt entity_conv "Protein" & info [ "t1" ] ~docv:"ENTITY" ~doc:"First entity set.")

let t2_arg = Arg.(value & opt entity_conv "DNA" & info [ "t2" ] ~docv:"ENTITY" ~doc:"Second entity set.")

let jobs_arg what =
  let doc =
    what
    ^ " (default: the machine's recommended domain count, capped at 8).  Results are \
       bit-identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let json_out_arg doc = Arg.(value & opt (some string) None & info [ "json-out" ] ~docv:"FILE" ~doc)

let write_json json_out json =
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc (Obs.Json.to_string ~pretty:true json));
      Printf.printf "wrote %s\n" path)
    json_out

let seconds_of_ms = Option.map (fun ms -> ms /. 1000.0)

(* An int flag that must be at least 1.  The term checks it as the command
   line is evaluated, before any instance is generated, engine built or
   snapshot read. *)
let at_least_one_arg names ~default ~docv ~doc =
  let check n = if n < 1 then usage_error "--%s must be >= 1, got %d" (List.hd names) n else n in
  Term.(const check $ Arg.(value & opt int default & info names ~docv ~doc))

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "Boot from a snapshot written by $(b,build -o) instead of generating the instance and \
           re-running the offline sweep.  $(b,--scale)/$(b,--seed)/$(b,--l)/$(b,--pruning-threshold) \
           are ignored; the snapshot carries its build configuration.")

(* [f x], reporting a snapshot or manifest that cannot be read or written
   as a usage error. *)
let snapshot_io f x = match f x with v -> v | exception Snapshot.Error msg -> usage_error "%s" msg

let load_snapshot = snapshot_io Snapshot.load

(* ------------------------------------------------------------------ *)
(* Engine boot                                                          *)

(* --scale/--seed: the synthetic instance, generated when the thunk is
   forced.  A scale the generator cannot honour is a usage error. *)
let instance_term =
  let generate scale seed () =
    let config = Biozon.Generator.scale scale { Biozon.Generator.default with Biozon.Generator.seed } in
    match Biozon.Generator.generate config with
    | catalog -> catalog
    | exception Invalid_argument msg -> usage_error "%s" msg
  in
  Term.(const generate $ scale_arg $ seed_arg)

(* An engine over one entity-set pair.  The subcommand forces [engine]
   itself, so no instance is generated and no snapshot read while
   cmdliner is still checking flags. *)
type boot = { t1 : string; t2 : string; l : int; engine : unit -> Engine.t }

(* --scale/--seed/--l/--pruning-threshold: [sweep t1 t2 snapshot] boots
   from [snapshot] when given, otherwise generates the instance and runs
   the offline sweep over (t1, t2). *)
let sweep_term =
  let sweep instance l threshold t1 t2 snapshot =
    let engine () =
      match snapshot with
      | Some path -> load_snapshot path
      | None -> Engine.build (instance ()) ~pairs:[ (t1, t2) ] ~l ~pruning_threshold:threshold ()
    in
    { t1; t2; l; engine }
  in
  Term.(const sweep $ instance_term $ l_arg $ threshold_arg)

let boot_term = Term.(sweep_term $ t1_arg $ t2_arg $ const None)

let snapshot_boot_term = Term.(sweep_term $ t1_arg $ t2_arg $ snapshot_arg)

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
    | [ a; b ] when a <> "" && b <> "" -> (
        match (Arg.conv_parser entity_conv a, Arg.conv_parser entity_conv b) with
        | Ok a, Ok b -> Ok (a, b)
        | (Error _ as e), _ | _, (Error _ as e) -> e)
    | _ -> Error (`Msg (Printf.sprintf "bad pair %S (expected T1:T2, e.g. Protein:DNA)" s))
  in
  let print fmt (a, b) = Format.fprintf fmt "%s:%s" a b in
  Arg.conv (parse, print)

let build_run instance l threshold jobs pairs output shards =
  if shards > 1 && output = None then
    usage_error "--shards needs -o DIR: sliced snapshots must be written somewhere";
  let pairs = if pairs = [] then [ ("Protein", "DNA"); ("Protein", "Interaction") ] else pairs in
  let catalog = instance () in
  let jobs = max 1 (Option.value jobs ~default:(Topo_util.Pool.default_jobs ())) in
  let engine, elapsed =
    Topo_util.Timer.time (fun () ->
        Engine.build catalog ~pairs ~l ~pruning_threshold:threshold ~jobs ())
  in
  Printf.printf "offline build: %d pair(s), l=%d, jobs=%d (recommended domains: %d)\n\n"
    (List.length pairs) l jobs (Domain.recommended_domain_count ());
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
  match output with
  | None -> 0
  | Some path when shards = 1 ->
      let bytes = snapshot_io (fun path -> Snapshot.save engine ~path) path in
      Printf.printf "snapshot: %s (%d bytes, format v%d, fingerprint %s)\n" path bytes
        Snapshot.version (Engine.fingerprint engine);
      0
  | Some dir ->
      let manifest, bytes = snapshot_io (fun dir -> Snapshot.save_sharded engine ~dir ~shards) dir in
      Printf.printf "sharded snapshot: %s (%d shard(s), %d bytes total, format v%d)\n" dir shards
        bytes Snapshot.version;
      List.iter (fun (t1, t2, k) -> Printf.printf "  %s-%s -> shard %d\n" t1 t2 k) manifest.Snapshot.pairs;
      0

let build_cmd =
  let jobs = jobs_arg "Domains for the offline build" in
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
    at_least_one_arg [ "shards" ] ~default:1 ~docv:"N"
      ~doc:
        "With $(b,-o DIR): slice the snapshot into $(docv) pair-partitioned shards \
         ($(b,shard-K.snap) plus a $(b,manifest)), each loadable by $(b,toposearch shard) and \
         routed over by $(b,toposearch route).  At least 1."
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Run the offline phase only: topology computation for each requested pair, in parallel \
          across $(b,--jobs) domains, printing per-pair sweep statistics.  With $(b,-o FILE), \
          persist the result as a snapshot for instant cold starts; add $(b,--shards N) to write \
          pair-partitioned slices for the distributed serving tier.")
    Term.(
      const build_run $ instance_term $ l_arg $ threshold_arg $ jobs $ pairs $ output $ shards)

(* ------------------------------------------------------------------ *)
(* query and profile                                                    *)

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

(* --kw1/--kw2/--method/--scheme/--topk, shared by query and profile: the
   one request they run between the boot's pair. *)
type shape = {
  kw1 : string option;
  kw2 : string option;
  method_ : Engine.method_;
  scheme : Ranking.scheme;
  k : int;
}

let shape_term =
  let kw1 = Arg.(value & opt (some string) None & info [ "kw1" ] ~docv:"WORD" ~doc:"Keyword constraint on $(b,t1)'s description.") in
  let kw2 = Arg.(value & opt (some string) None & info [ "kw2" ] ~docv:"WORD" ~doc:"Keyword constraint on $(b,t2)'s description.") in
  let method_ = Arg.(value & opt method_conv Engine.Fast_top_k_opt & info [ "method" ] ~docv:"M" ~doc:"Evaluation method (paper names, e.g. Fast-Top-k-ET).") in
  let scheme = Arg.(value & opt scheme_conv Ranking.Domain & info [ "scheme" ] ~docv:"S" ~doc:"Ranking scheme: Freq, Rare or Domain.") in
  let k = at_least_one_arg [ "topk"; "n" ] ~default:10 ~docv:"N" ~doc:"Number of results for top-k methods; at least 1." in
  Term.(const (fun kw1 kw2 method_ scheme k -> { kw1; kw2; method_; scheme; k }) $ kw1 $ kw2 $ method_ $ scheme $ k)

(* An endpoint over [entity], constrained by keyword [kw] on its
   description when one is given. *)
let endpoint catalog entity = function
  | Some kw -> Query.keyword catalog entity ~col:"desc" ~kw
  | None -> Query.endpoint catalog entity

(* The shaped request between the boot's pair, echoed as a header.
   [constrain2] narrows the second endpoint further. *)
let shaped_request ?(constrain2 = Fun.id) catalog boot s =
  let q = Query.make (endpoint catalog boot.t1 s.kw1) (constrain2 (endpoint catalog boot.t2 s.kw2)) in
  Printf.printf "query: %s\nmethod: %s, scheme: %s, k: %d\n\n" (Query.to_string q)
    (Engine.method_name s.method_) (Ranking.name s.scheme) s.k;
  Request.make ~scheme:s.scheme ~k:s.k s.method_ q

let print_result_count (r : Request.result) =
  Printf.printf "\n%d result(s) in %.1fms\n" (List.length r.Request.ranked) (r.Request.elapsed_s *. 1000.0)

let query_run boot shape dna_type instances =
  let engine = boot.engine () in
  let catalog = catalog_of engine in
  let constrain2 base =
    match dna_type with
    | Some ty when boot.t2 = "DNA" ->
        Query.conj base (Query.equals catalog "DNA" ~col:"type" ~value:(Topo_sql.Value.Str ty))
    | _ -> base
  in
  let req = shaped_request ~constrain2 catalog boot shape in
  let r = Request.get_done (Engine.run_request engine req) in
  if instances then Topo_core.Report.print engine req.Request.query r ()
  else
    List.iteri
      (fun i (tid, score) ->
        let score_str = match score with Some s -> Printf.sprintf " [score %.3g]" s | None -> "" in
        Printf.printf "%2d. TID %d%s\n    %s\n" (i + 1) tid score_str (Engine.describe engine tid))
      r.Request.ranked;
  print_result_count r;
  (match r.Request.strategy with
  | Some Topo_sql.Optimizer.Regular -> print_endline "optimizer chose: regular plan"
  | Some Topo_sql.Optimizer.Early_termination -> print_endline "optimizer chose: DGJ early-termination plan"
  | None -> ());
  0

let query_cmd =
  let dna_type = Arg.(value & opt (some string) None & info [ "dna-type" ] ~docv:"TYPE" ~doc:"Equality constraint on DNA.type (mRNA, EST, genomic).") in
  let instances = Arg.(value & flag & info [ "instances" ] ~doc:"Show instance pairs and witnesses per topology (the Figure 5 presentation).") in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a topology query over a synthetic Biozon instance.")
    Term.(const query_run $ boot_term $ shape_term $ dna_type $ instances)

let profile_run boot shape json_out =
  let engine = boot.engine () in
  let req = shaped_request (catalog_of engine) boot shape in
  let outcome = Engine.run_request engine ~traces:true req in
  let r = Request.get_done outcome and trace = Option.get outcome.Request.trace in
  print_string (Obs.Trace.to_text trace);
  print_result_count r;
  write_json json_out (Obs.Trace.to_json trace);
  0

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a topology query under a trace and print the span tree of the evaluation phases \
          (plan building, optimizer choice, execution, pruned-topology checks).")
    Term.(const profile_run $ boot_term $ shape_term $ json_out_arg "Also write the span tree as JSON.")

(* ------------------------------------------------------------------ *)
(* topologies                                                           *)

let topologies_run boot n =
  let engine = boot.engine () in
  let store = Engine.store engine ~t1:boot.t1 ~t2:boot.t2 in
  let top = Topo_core.Analysis.top_frequent store ~n in
  Printf.printf "%s-%s %d-topologies by frequency (showing %d):\n\n" boot.t1 boot.t2 boot.l (List.length top);
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
    Term.(const topologies_run $ boot_term $ n)

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
(* SQL scripts: sql, check and explain                                  *)

(* Runs [each] over [statements], echoing each one first when [echo].  A
   lex, parse or bind error is reported in the statement's place,
   followed by [gap]; [each] returns false for a statement that failed in
   its own way.  [finish] sees the failure count; the exit code is 1 when
   any statement failed. *)
let run_script ?(echo = true) ?(gap = "") ?(finish = ignore) statements each =
  let failures =
    List.fold_left
      (fun failures q ->
        if echo then Printf.printf "-- %s\n" q;
        let error report =
          print_string report;
          print_string gap;
          failures + 1
        in
        match each q with
        | true -> failures
        | false -> failures + 1
        | exception Topo_sql.Sql_lexer.Lex_error (msg, pos) ->
            error (Printf.sprintf "lex error at %d: %s\n" pos msg)
        | exception Topo_sql.Sql_parser.Parse_error msg -> error (Printf.sprintf "parse error: %s\n" msg)
        | exception Topo_sql.Sql_binder.Bind_error msg -> error (Printf.sprintf "bind error: %s\n" msg))
      0 statements
  in
  finish failures;
  if failures = 0 then 0 else 1

let sql_run boot text =
  let catalog = catalog_of (boot.engine ()) in
  run_script ~echo:false [ text ] (fun q ->
      print_string (Topo_sql.Sql.render catalog q);
      true)

let sql_cmd =
  let text = Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query.") in
  Cmd.v
    (Cmd.info "sql"
       ~doc:
         "Evaluate SQL over a synthetic instance (base tables plus the derived AllTops_*/LeftTops_*/ExcpTops_*/TopInfo_* tables).")
    Term.(const sql_run $ boot_term $ text)

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

(* A SQL argument or --file, shared by check and explain: the script's
   statements, read as the command line is evaluated. *)
let script_term =
  let text = Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query (or queries, `;`-separated).") in
  let file = Arg.(value & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc:"Read `;`-separated queries from a file instead.") in
  let gather text file =
    match (text, file) with
    | Some q, None -> split_statements q
    | None, Some path -> split_statements (read_file path)
    | Some _, Some _ -> usage_error "pass either a SQL argument or --file, not both"
    | None, None -> usage_error "pass a SQL query or --file FILE"
  in
  Term.(const gather $ text $ file)

let check_run boot queries =
  let catalog = catalog_of (boot.engine ()) in
  let n = List.length queries in
  let finish failures =
    Printf.printf "%d quer%s checked, %d with violations\n" n (if n = 1 then "y" else "ies") failures
  in
  run_script ~finish queries (fun q ->
      match Topo_sql.Sql.lint catalog q with
      | [] ->
          print_endline "ok";
          true
      | violations ->
          print_endline (Topo_sql.Plan_check.report violations);
          false)

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Lint SQL queries: bind each one and run the physical-plan verifier (schema/arity typing, \
          ordering and grouping invariants) without executing.  Exits 1 when any query has \
          violations.")
    Term.(const check_run $ snapshot_boot_term $ script_term)

(* Prints the estimate tree, one indented operator a line, and returns it
   as JSON: one walk for both reports. *)
let rec est_report depth (n : Obs.Estimate.node) =
  let { Obs.Estimate.rows; cost } = n.Obs.Estimate.est in
  Printf.printf "%s%s  est_rows=%.0f est_cost=%.1f\n" (String.make (2 * depth) ' ') n.Obs.Estimate.label rows cost;
  Obs.Json.Obj
    [
      ("operator", Obs.Json.Str n.Obs.Estimate.label);
      ("est_rows", Obs.Json.Num rows);
      ("est_cost", Obs.Json.Num cost);
      ("children", Obs.Json.Arr (List.map (est_report (depth + 1)) n.Obs.Estimate.children));
    ]

let explain_run boot queries analyze json_out =
  let catalog = catalog_of (boot.engine ()) in
  let reports = ref [] in
  let explain q =
    let json =
      if analyze then begin
        let report, _rows = Obs.Explain_analyze.of_sql catalog q in
        print_string (Obs.Explain_analyze.to_text report);
        Obs.Explain_analyze.to_json report
      end
      else est_report 0 (Obs.Estimate.annotate catalog (Topo_sql.Sql.to_plan catalog q))
    in
    print_newline ();
    reports := Obs.Json.Obj [ ("query", Obs.Json.Str q); ("report", json) ] :: !reports;
    true
  in
  let finish _ = write_json json_out (Obs.Json.Arr (List.rev !reports)) in
  run_script ~gap:"\n" ~finish queries explain

let explain_cmd =
  let analyze = Arg.(value & flag & info [ "analyze" ] ~doc:"Execute the plan instrumented and print measured rows, next() calls and wall time next to the estimates, flagging operators off by more than 10x.") in
  let json_out = json_out_arg "Also write the per-operator report(s) as JSON." in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show a query's physical plan with the optimizer's cardinality and cost estimates.  With \
          $(b,--analyze), execute the plan under per-operator instrumentation (EXPLAIN ANALYZE).")
    Term.(const explain_run $ snapshot_boot_term $ script_term $ analyze $ json_out)

(* ------------------------------------------------------------------ *)
(* Workloads and the determinism check: serve and route                 *)

(* --file/--repeat, shared by serve and route. *)
type workload = { file : string option; repeat : int }

let workload_term =
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
      & info [ "repeat" ] ~docv:"R" ~doc:"Run the workload $(docv) times over (stress/throughput runs).")
  in
  Term.(const (fun file repeat -> { file; repeat }) $ file $ repeat)

(* Default mixed workload: all nine methods, three selectivities each. *)
let default_workload catalog ~t1 ~t2 =
  let schemes = [| Ranking.Freq; Ranking.Rare; Ranking.Domain |] in
  List.concat_map
    (fun method_ ->
      List.mapi
        (fun i kw1 ->
          let q = Query.make (endpoint catalog t1 kw1) (Query.endpoint catalog t2) in
          Request.make ~scheme:schemes.(i mod 3) ~k:10 method_ q)
        [ Some "kinase"; Some "enzyme"; None ])
    Engine.all_methods

(* The workload's batch between [t1] and [t2]: the file's requests (see
   [Request.of_workload_line]) or the default batch.  A malformed line is
   reported with its line number, skipped and counted; an empty batch is
   a usage error.  Returns the batch once and repeated --repeat times. *)
let load_workload catalog ~t1 ~t2 w =
  let base =
    match w.file with
    | None -> default_workload catalog ~t1 ~t2
    | Some path ->
        let skipped = ref 0 in
        let requests =
          String.split_on_char '\n' (read_file path)
          |> List.mapi (fun i line -> (i + 1, Request.of_workload_line catalog ~t1 ~t2 line))
          |> List.filter_map (function
               | _, `Request r -> Some r
               | _, `Blank -> None
               | lineno, `Malformed msg ->
                   Printf.eprintf "workload line %d: %s (skipped)\n" lineno msg;
                   incr skipped;
                   None)
        in
        if !skipped > 0 then
          Printf.printf "skipped %d malformed line%s\n" !skipped (if !skipped = 1 then "" else "s");
        requests
  in
  if base = [] then usage_error "empty workload";
  (base, List.concat (List.init (max 1 w.repeat) (fun _ -> base)))

(* [outcomes] must fingerprint like a sequential, uncached jobs=1
   evaluation of [requests] on [engine].  Prints [ok] or [failed] and
   returns the exit code. *)
let check_against_jobs1 engine requests outcomes ~ok ~failed =
  let reference = (Serve.exec (Serve.config ~jobs:1 ()) engine requests).Serve.outcomes in
  let same = Serve.fingerprint outcomes = Serve.fingerprint reference in
  print_endline (if same then ok else failed);
  if same then 0 else 1

(* Every request between [t1] and [t2] would fail unless a store for the
   pair, in either orientation, is among [held] (build orientation): that
   is a usage error naming the pairs there are. *)
let require_pair ~what ~t1 ~t2 held =
  if not (List.mem (t1, t2) held || List.mem (t2, t1) held) then
    usage_error "%s holds %s" what (Request.failure_to_string (Request.unknown_pair ~t1 ~t2 held))

let print_outcome i (o : Request.outcome) =
  let name = Engine.method_name o.Request.request.Request.method_ in
  match o.Request.result with
  | Request.Done r | Request.Partial r ->
      Printf.printf "%3d. %-14s %2d result(s)%s  [tuples %d, probes %d, scanned %d]\n" (i + 1) name
        (List.length r.Request.ranked)
        (match o.Request.result with Request.Partial _ -> " (partial)" | _ -> "")
        o.Request.counters.Topo_sql.Iterator.Counters.tuples
        o.Request.counters.Topo_sql.Iterator.Counters.index_probes
        o.Request.counters.Topo_sql.Iterator.Counters.rows_scanned
  | Request.Rejected rj -> Printf.printf "%3d. %-14s REJECTED (%s)\n" (i + 1) name (Request.rejection_name rj)
  | Request.Failed f ->
      Printf.printf "%3d. %-14s ERROR %s\n" (i + 1) name (Request.failure_to_string f)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)

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
             from memoized results.  Results stay bit-identical to an uncached run.")
  in
  let cache_size =
    at_least_one_arg [ "cache-size" ] ~default:1024 ~docv:"N"
      ~doc:"Result-cache capacity in entries (LRU eviction past this); at least 1."
  in
  let make use_cache n engine = if use_cache then Some (Engine.cache ~capacity:n engine) else None in
  Term.(const make $ use_cache $ cache_size)

let serve_run boot jobs workload traces check cache_of deadline_ms max_queue rate =
  let engine = boot.engine () in
  require_pair ~what:"the snapshot" ~t1:boot.t1 ~t2:boot.t2
    (Topo_core.Context.pairs engine.Engine.ctx);
  let base, requests = load_workload (catalog_of engine) ~t1:boot.t1 ~t2:boot.t2 workload in
  let cache = cache_of engine in
  let deadline_s = seconds_of_ms deadline_ms in
  (* The serve itself still runs; only the verification is skipped.  Exit
     3, reason on stderr: CI must be able to distinguish "verified" (0)
     from "mismatch" (1) from "not verified at all" (3). *)
  let skip_check code why =
    prerr_endline ("serve --check: skipped — " ^ why);
    if code = 0 then 3 else code
  in
  match rate with
  | Some r ->
      let code = serve_open engine ~jobs ~traces ~cache ~max_queue ~deadline_s ~rate:r requests in
      if check then
        skip_check code
          "--check applies to closed-loop serving only (open-loop outcomes depend on arrival timing)"
      else code
  | None ->
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
  let n_base = List.length base in
  List.iteri (fun i o -> if i < n_base then print_outcome i o) outcomes;
  if traces then begin
    print_newline ();
    List.iteri
      (fun i (o : Request.outcome) ->
        match o.Request.trace with
        | Some tr when i < n_base ->
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
      Printf.printf "cache: %d hits, %d misses (%.0f%% hit rate), %d evictions\n"
        r.Topo_core.Cache.hits r.Topo_core.Cache.misses
        (100.0 *. Topo_core.Cache.hit_rate r)
        r.Topo_core.Cache.evictions
  | None -> ());
  let code = if stats.Serve.errors > 0 then 1 else 0 in
  if check && deadline_s <> None then
    skip_check code "--check needs deterministic outcomes and wall deadlines depend on timing"
  else if check then
    (* The reference pass is sequential AND uncached, so with --cache this
       also asserts that serving from the cache changed no answer. *)
    match
      check_against_jobs1 engine requests outcomes
        ~ok:"determinism check: concurrent results bit-identical to jobs=1"
        ~failed:"determinism check FAILED: concurrent results differ from jobs=1"
    with
    | 0 -> code
    | check_code -> check_code
  else code

let serve_cmd =
  let jobs = jobs_arg "Domains for concurrent query evaluation" in
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
    let rate =
      Arg.(
        value
        & opt (some float) None
        & info [ "rate" ] ~docv:"QPS"
            ~doc:
              "Serve open-loop: arrivals uniformly spaced at $(docv) requests/s through a bounded \
               admission queue, reporting latency percentiles measured from each request's \
               intended arrival (coordinated-omission corrected).  Must be > 0.")
    in
    let positive = function
      | Some r when not (Float.is_finite r && r > 0.0) -> usage_error "--rate must be > 0, got %g" r
      | rate -> rate
    in
    Term.(const positive $ rate)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Evaluate a batch of topology queries concurrently across OCaml domains (the online \
          serving tier): shared read-only stores, per-query counters \
          and traces, optional shared result cache, deterministic input-order results; \
          open-loop mode (--rate) with admission control and deadlines.")
    Term.(
      const serve_run $ snapshot_boot_term $ jobs $ workload_term $ traces $ check $ cache_arg
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
    match (shard_idx, shard_index_of_path snapshot) with
    | Some k, _ | None, Some k -> k
    | None, None -> usage_error "cannot infer the shard index from the snapshot filename; pass --shard K"
  in
  let engine = load_snapshot snapshot in
  let serve = Serve.config ?jobs ?cache:(cache_of engine) () in
  match
    Shard.start ~serve ~max_inflight
      ?write_timeout_s:(seconds_of_ms timeout_ms)
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
  let jobs = jobs_arg "Evaluation domains for this shard's pool" in
  let max_inflight =
    at_least_one_arg [ "max-inflight" ] ~default:256 ~docv:"N"
      ~doc:
        "Bound on concurrently evaluating requests across all connections; batches past it are \
         answered $(b,Rejected Overloaded) instead of queueing.  At least 1."
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

let route_run manifest_dir sockets t1 t2 workload check_snapshot timeout_ms retries =
  let manifest = snapshot_io Snapshot.load_manifest manifest_dir in
  require_pair ~what:"the manifest" ~t1 ~t2
    (List.map (fun (t1, t2, _) -> (t1, t2)) manifest.Snapshot.pairs);
  if List.length sockets <> manifest.Snapshot.shards then
    usage_error "manifest names %d shard(s) but %d --socket address(es) were given"
      manifest.Snapshot.shards (List.length sockets);
  (* The workload needs a catalog for endpoint/keyword binding; the full
     snapshot (when checking) or any slice works — slices keep every base
     table and drop only other shards' derived tables. *)
  let reference = Option.map load_snapshot check_snapshot in
  let catalog_engine =
    match reference with
    | Some e -> e
    | None -> load_snapshot (Snapshot.shard_path ~dir:manifest_dir 0)
  in
  let _, requests = load_workload (catalog_of catalog_engine) ~t1 ~t2 workload in
  let router =
    Router.create ~manifest ~addrs:(Array.of_list sockets)
      ?timeout_s:(seconds_of_ms timeout_ms)
      ?retries ()
  in
  match Topo_util.Timer.time (fun () -> Router.exec router requests) with
  | exception Wire.Error msg ->
      Router.close router;
      prerr_endline msg;
      2
  | outcomes, elapsed ->
      Router.close router;
      let count p = List.length (List.filter (fun o -> p o.Request.result) outcomes) in
      let done_ = count (function Request.Done _ -> true | _ -> false) in
      let partial = count (function Request.Partial _ -> true | _ -> false) in
      let rejected = count (function Request.Rejected _ -> true | _ -> false) in
      let failed = count (function Request.Failed _ -> true | _ -> false) in
      List.iteri
        (fun i o -> match o.Request.result with Request.Failed _ -> print_outcome i o | _ -> ())
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
            check_against_jobs1 engine requests outcomes
              ~ok:"distribution check: sharded results bit-identical to single-process jobs=1"
              ~failed:"distribution check FAILED: sharded results differ from single-process"
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
      const route_run $ manifest $ sockets $ t1_arg $ t2_arg $ workload_term $ check_snapshot
      $ timeout_ms $ retries)

(* ------------------------------------------------------------------ *)
(* nquery                                                               *)

let nquery_run sweep entities kws max_tuples =
  match entities with
  | t1 :: t2 :: _ ->
      let engine = (sweep t1 t2 None).engine () in
      let catalog = catalog_of engine in
      let endpoints =
        List.mapi (fun i entity -> endpoint catalog entity (Option.join (List.nth_opt kws i))) entities
      in
      let r = Nquery.run engine.Engine.ctx ~endpoints ~max_tuples () in
      Printf.printf "%d qualifying tuples (%d examined%s), %d distinct topologies:\n"
        (List.length r.Topo_core.Nquery.rows)
        r.Topo_core.Nquery.tuples_examined
        (if r.Topo_core.Nquery.truncated then ", truncated" else "")
        (List.length r.Topo_core.Nquery.topologies);
      List.iter
        (fun (t : Topo_core.Topology.t) ->
          Printf.printf "  TID %-4d %s\n" t.Topo_core.Topology.tid
            (Topo_core.Topology.describe engine.Engine.ctx.Topo_core.Context.interner t))
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
  | _ -> usage_error "need at least two --entity arguments"

let nquery_cmd =
  let entities =
    Arg.(value & opt_all entity_conv [ "Protein"; "Unigene"; "DNA" ]
         & info [ "entity" ] ~docv:"ENTITY" ~doc:"Endpoint entity set (repeatable, in order).")
  in
  let kws =
    Arg.(value & opt_all (some string) []
         & info [ "kw" ] ~docv:"WORD" ~doc:"Keyword for the i-th endpoint (repeatable; use --kw= for none).")
  in
  let max_tuples = Arg.(value & opt int 2000 & info [ "max-tuples" ] ~docv:"N" ~doc:"Tuple budget.") in
  Cmd.v
    (Cmd.info "nquery" ~doc:"Run a multi-endpoint topology query (the paper's future-work extension).")
    Term.(const nquery_run $ sweep_term $ entities $ kws $ max_tuples)

(* ------------------------------------------------------------------ *)
(* dump / load                                                          *)

let dump_run instance dir =
  let catalog = instance () in
  Topo_sql.Dump.save catalog ~dir;
  Printf.printf "saved %d tables to %s\n" (List.length (Topo_sql.Catalog.tables catalog)) dir;
  0

let dump_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Output directory.") in
  Cmd.v
    (Cmd.info "dump" ~doc:"Generate a synthetic instance and save it as .tbl files.")
    Term.(const dump_run $ instance_term $ dir)

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
