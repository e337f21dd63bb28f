(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 6) plus the Section 3.1 counting claims.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig11 table2 # selected experiments
     dune exec bench/main.exe -- --scale=0.5 --skip-sql table2

   Options:
     --scale=F     scale the synthetic Biozon instance (default 1.0)
     --seed=N      generator seed
     --runs=N      repetitions per timed cell (median reported, default 3)
     --skip-sql    omit the SQL method from Table 2 (it is slow by design)
     --l4-scale=F  extra down-scaling for the l = 4 build (default 0.6)
     --jobs=N      domains for offline builds (default: engine's choice) *)

let experiments =
  [
    ("fig8", Exp_fig8.run);
    ("baseline", Exp_baseline.run);
    ("fig11", Exp_fig11.run);
    ("fig12", Exp_fig12.run);
    ("table1", Exp_table1.run);
    ("table2", Exp_table2.run);
    ("table3", Exp_table3.run);
    ("fig16", Exp_fig16.run);
    ("fig17", Exp_fig17.run);
    ("varyk", Exp_varyk.run);
    ("varyl", Exp_varyl.run);
    ("instances", Exp_instances.run);
    ("ablations", Exp_ablations.run);
    ("micro", Exp_micro.run);
  ]

let parse_args () =
  let selected = ref [] in
  let bad arg = Printf.eprintf "unknown argument %s\n" arg; exit 2 in
  let number parse key value =
    match parse value with
    | Some v -> v
    | None -> Printf.eprintf "invalid value %S for --%s\n" value key; exit 2
  in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        if String.length arg > 2 && String.sub arg 0 2 = "--" then begin
          match String.index_opt arg '=' with
          | Some eq ->
              let key = String.sub arg 2 (eq - 2) in
              let value = String.sub arg (eq + 1) (String.length arg - eq - 1) in
              (match key with
              | "scale" -> Bench_common.config.Bench_common.scale <- number float_of_string_opt key value
              | "seed" -> Bench_common.config.Bench_common.seed <- number int_of_string_opt key value
              | "runs" -> Bench_common.config.Bench_common.runs <- number int_of_string_opt key value
              | "l4-scale" -> Bench_common.config.Bench_common.l4_scale <- number float_of_string_opt key value
              | "jobs" -> Bench_common.config.Bench_common.jobs <- Some (number int_of_string_opt key value)
              | _ -> bad arg)
          | None -> (
              match arg with
              | "--skip-sql" -> Bench_common.config.Bench_common.skip_sql <- true
              | _ -> bad arg)
        end
        else if List.mem_assoc arg experiments then selected := arg :: !selected
        else bad arg)
    Sys.argv;
  List.rev !selected

let () =
  let selected = parse_args () in
  let to_run = if selected = [] then List.map fst experiments else selected in
  Printf.printf "toposearch experiment harness\n";
  Printf.printf "synthetic Biozon scale %.2f, seed %d, %d run(s) per timed cell%s\n"
    Bench_common.config.Bench_common.scale Bench_common.config.Bench_common.seed
    Bench_common.config.Bench_common.runs
    (if Bench_common.config.Bench_common.skip_sql then ", SQL method skipped" else "");
  let total = ref 0.0 in
  List.iter
    (fun name ->
      let f = List.assoc name experiments in
      let (), dt = Topo_util.Timer.time f in
      total := !total +. dt;
      Printf.printf "\n[%s done in %.1fs]\n" name dt)
    to_run;
  Printf.printf "\nall experiments done in %.1fs\n" !total
