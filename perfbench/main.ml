(* perfbench: the repository benchmark.

     main.exe --workload serve-distinct|serve-zipf|routed-hot
              [--seed N] [--seconds S] [--trace 0|1]

   Prints a human-readable report, then, as its last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  Exits
   1 without that line when the correctness gate fails. *)

let () =
  let workload = ref "" and seed = ref Perfbench.Workload.default_seed and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " serve-distinct, serve-zipf or routed-hot");
      ("--seed", Arg.Set_int seed, " workload seed (default 20070415)");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics from a traced run");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench --workload NAME";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace must be 0 or 1"; exit 2);
  if !seconds <= 0.0 then (prerr_endline "perfbench: --seconds must be positive"; exit 2);
  match Perfbench.Bench.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | Ok line -> print_endline line
  | Error msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1
