(* Tests for the utility kit: PRNG determinism, Zipf sampling, dynamic
   arrays, interning, pretty-printing. *)

open Topo_util

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a max_int) (Prng.int b max_int)
  done

let test_prng_bounds () =
  let p = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in_range p ~lo:5 ~hi:9 in
    Alcotest.(check bool) "in closed range" true (v >= 5 && v <= 9)
  done

let test_prng_float_unit () =
  let p = Prng.create 3 in
  for _ = 1 to 1000 do
    let f = Prng.float p in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_split_independent () =
  let parent = Prng.create 11 in
  let child = Prng.split parent in
  let a = Prng.int parent max_int and b = Prng.int child max_int in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_prng_shuffle_permutation () =
  let p = Prng.create 5 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_sample_without_replacement () =
  let p = Prng.create 9 in
  let arr = Array.init 20 Fun.id in
  let s = Prng.sample p arr 5 in
  Alcotest.(check int) "size" 5 (Array.length s);
  let module IS = Set.Make (Int) in
  Alcotest.(check int) "distinct" 5 (IS.cardinal (IS.of_list (Array.to_list s)))

let test_zipf_rank_order () =
  let z = Zipf.create ~n:50 ~s:1.0 in
  let p = Prng.create 123 in
  let counts = Array.make 51 0 in
  for _ = 1 to 20000 do
    let r = Zipf.sample z p in
    counts.(r) <- counts.(r) + 1
  done;
  (* Rank 1 must dominate rank 10 which must dominate rank 50. *)
  Alcotest.(check bool) "rank1 > rank10" true (counts.(1) > counts.(10));
  Alcotest.(check bool) "rank10 > rank50" true (counts.(10) > counts.(50))

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create ~n:100 ~s:1.5 in
  let total = ref 0.0 in
  for r = 1 to 100 do
    total := !total +. Zipf.pmf z r
  done;
  Alcotest.(check (float 1e-9)) "pmf total" 1.0 !total

let test_zipf_uniform_when_s_zero () =
  let z = Zipf.create ~n:4 ~s:0.0 in
  Alcotest.(check (float 1e-9)) "uniform" 0.25 (Zipf.pmf z 1);
  Alcotest.(check (float 1e-9)) "uniform" 0.25 (Zipf.pmf z 4)

let test_dyn_push_get () =
  let d = Dyn.create () in
  for i = 0 to 99 do
    Dyn.push d (i * i)
  done;
  Alcotest.(check int) "length" 100 (Dyn.length d);
  Alcotest.(check int) "get 7" 49 (Dyn.get d 7);
  Dyn.set d 7 0;
  Alcotest.(check int) "set" 0 (Dyn.get d 7)

let test_dyn_pop_clear () =
  let d = Dyn.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "pop" 3 (Dyn.pop d);
  Alcotest.(check int) "length after pop" 2 (Dyn.length d);
  Dyn.clear d;
  Alcotest.(check bool) "empty" true (Dyn.is_empty d)

let test_dyn_bounds_raise () =
  let d = Dyn.of_list [ 1 ] in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Dyn.get: index 1 out of bounds [0,1)")
    (fun () -> ignore (Dyn.get d 1))

let test_dyn_conversions () =
  let d = Dyn.of_list [ 5; 6; 7 ] in
  Alcotest.(check (list int)) "to_list" [ 5; 6; 7 ] (Dyn.to_list d);
  Alcotest.(check (array int)) "to_array" [| 5; 6; 7 |] (Dyn.to_array d);
  let doubled = Dyn.map (fun x -> x * 2) d in
  Alcotest.(check (list int)) "map" [ 10; 12; 14 ] (Dyn.to_list doubled)

let test_interner_roundtrip () =
  let i = Interner.create () in
  let a = Interner.intern i "Protein" in
  let b = Interner.intern i "DNA" in
  let a' = Interner.intern i "Protein" in
  Alcotest.(check int) "stable id" a a';
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check string) "name back" "Protein" (Interner.name i a);
  Alcotest.(check int) "count" 2 (Interner.count i)

let test_pretty_render_alignment () =
  let out = Pretty.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "10"; "20" ] ] in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "line count" 4 (List.length lines)

let test_pretty_bytes () =
  Alcotest.(check string) "gb" "3.36GB" (Pretty.bytes_cell 3_360_000_000);
  Alcotest.(check string) "mb" "30.0MB" (Pretty.bytes_cell 30_000_000);
  Alcotest.(check string) "b" "17B" (Pretty.bytes_cell 17)

let test_timer_measures () =
  let v, t = Timer.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 v;
  Alcotest.(check bool) "non-negative" true (t >= 0.0)

(* With an even number of runs the median must average the two middle
   samples.  Sleeping 0/40ms the true median is ~20ms; taking only the
   upper-middle sample (the old behavior) would report ~40ms, outside the
   generous bounds below. *)
let test_timer_median_even_2 () =
  let calls = ref 0 in
  let _, median =
    Timer.repeat_median ~runs:2 (fun () ->
        incr calls;
        if !calls mod 2 = 0 then Unix.sleepf 0.04)
  in
  Alcotest.(check bool) "mean of the two middle samples" true (median > 0.005 && median < 0.035)

let test_timer_median_even_4 () =
  let calls = ref 0 in
  let _, median =
    Timer.repeat_median ~runs:4 (fun () ->
        incr calls;
        if !calls > 2 then Unix.sleepf 0.04)
  in
  Alcotest.(check bool) "mean of the two middle samples" true (median > 0.005 && median < 0.035)

let test_timer_median_odd () =
  let calls = ref 0 in
  let _, median =
    Timer.repeat_median ~runs:3 (fun () ->
        incr calls;
        if !calls = 3 then Unix.sleepf 0.04)
  in
  Alcotest.(check bool) "middle sample" true (median < 0.02)

let prop_zipf_in_support =
  (* Exercised across exponents, including s large enough that the tail
     weights underflow — the regime where the CDF clamp in [Zipf.create]
     matters. *)
  QCheck.Test.make ~name:"zipf samples stay in support" ~count:300
    QCheck.(triple (int_range 1 2000) (int_range 0 10000) (int_range 0 30))
    (fun (n, seed, s_half) ->
      let z = Zipf.create ~n ~s:(float_of_int s_half /. 2.0) in
      let p = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let r = Zipf.sample z p in
        if r < 1 || r > n then ok := false
      done;
      !ok)

let prop_dyn_matches_list =
  QCheck.Test.make ~name:"dyn behaves like a list" ~count:200
    QCheck.(small_list small_int)
    (fun l ->
      let d = Dyn.of_list l in
      Dyn.to_list d = l && Dyn.length d = List.length l)

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "bounds" `Quick test_prng_bounds;
        Alcotest.test_case "float in unit interval" `Quick test_prng_float_unit;
        Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_permutation;
        Alcotest.test_case "sample without replacement" `Quick test_prng_sample_without_replacement;
      ] );
    ( "util.zipf",
      [
        Alcotest.test_case "rank order" `Quick test_zipf_rank_order;
        Alcotest.test_case "pmf sums to one" `Quick test_zipf_pmf_sums_to_one;
        Alcotest.test_case "uniform when s=0" `Quick test_zipf_uniform_when_s_zero;
        QCheck_alcotest.to_alcotest prop_zipf_in_support;
      ] );
    ( "util.dyn",
      [
        Alcotest.test_case "push/get/set" `Quick test_dyn_push_get;
        Alcotest.test_case "pop/clear" `Quick test_dyn_pop_clear;
        Alcotest.test_case "bounds raise" `Quick test_dyn_bounds_raise;
        Alcotest.test_case "conversions" `Quick test_dyn_conversions;
        QCheck_alcotest.to_alcotest prop_dyn_matches_list;
      ] );
    ( "util.misc",
      [
        Alcotest.test_case "interner roundtrip" `Quick test_interner_roundtrip;
        Alcotest.test_case "pretty render" `Quick test_pretty_render_alignment;
        Alcotest.test_case "pretty bytes" `Quick test_pretty_bytes;
        Alcotest.test_case "timer" `Quick test_timer_measures;
        Alcotest.test_case "median of 2 runs" `Quick test_timer_median_even_2;
        Alcotest.test_case "median of 4 runs" `Quick test_timer_median_even_4;
        Alcotest.test_case "median of 3 runs" `Quick test_timer_median_odd;
      ] );
  ]
