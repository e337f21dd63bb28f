(* topolint, the source-level lint (tools/topolint): every rule must fire
   on a planted violation and stay silent on its well-behaved twin, the
   allowlist grammar must reject reasonless suppressions, and the real
   tree must lint clean — zero unallowlisted findings, no malformed and
   no unused lint.allow entries — so the rule set and the fixes land
   together. *)

module Lint = Topolint_lib.Lint
module Rules = Topolint_lib.Rules
module Deps = Topolint_lib.Deps
module Driver = Topolint_lib.Driver

(* Fixture sources parse through the exact pipeline the tool runs.  The
   default file path puts them under lib/core/ so the mutable-state
   scope applies; [hot] marks the module hot-path for that rule. *)
let analyze ?(file = "lib/core/fixture.ml") ?(hot = false) src =
  Rules.analyze ~file ~hot (Driver.parse_string ~file src)

let rule_ids findings = List.map (fun f -> Lint.rule_id f.Lint.rule) findings

let check_fires name rule findings =
  Alcotest.(check bool) (name ^ ": fires") true (List.mem rule (rule_ids findings))

let check_silent name findings =
  Alcotest.(check (list string)) (name ^ ": silent") [] (rule_ids findings)

(* --- mutable-state -------------------------------------------------------- *)

let test_mutable_field () =
  check_fires "unprotected mutable field" "mutable-state"
    (analyze "type t = { mutable x : int }");
  check_silent "field in a module declaring a Mutex"
    (analyze "type t = { mutable x : int }\nlet lock = Mutex.create ()");
  check_silent "field under DLS confinement"
    (analyze "type t = { mutable x : int }\nlet key = Domain.DLS.new_key (fun () -> 0)");
  check_silent "immutable field" (analyze "type t = { x : int }");
  check_silent "mutable field outside the state-scope directories"
    (analyze ~file:"bench/fixture.ml" "type t = { mutable x : int }")

let test_mutation_provenance () =
  check_fires "Hashtbl.replace on a parameter" "mutable-state"
    (analyze "let f h = Hashtbl.replace h 1 2");
  check_silent "Hashtbl.replace on a locally created table"
    (analyze "let f () = let h = Hashtbl.create 4 in Hashtbl.replace h 1 2");
  check_fires "ref assignment to a parameter" "mutable-state" (analyze "let f r = r := 1");
  check_silent "ref assignment to a local ref"
    (analyze "let f () = let r = ref 0 in r := 1; !r");
  check_fires "Array.sort on a parameter" "mutable-state"
    (analyze "let f a = Array.sort compare a");
  check_silent "Array.sort on a locally built array"
    (analyze "let f xs = let a = Array.of_list xs in Array.sort compare a; a");
  check_silent "mutation through a locally created record"
    (analyze
       "let f () = let g = { tbl = Hashtbl.create 4 } in Hashtbl.replace g.tbl 1 2");
  check_fires "module-level mutable binding" "mutable-state"
    (analyze "let registry = Hashtbl.create 16")

(* --- lock-discipline ------------------------------------------------------ *)

let test_lock_release () =
  check_fires "lock never released" "lock-discipline"
    (analyze ~file:"lib/obs/fixture.ml" "let f m g = Mutex.lock m; g ()");
  check_silent "Fun.protect releases"
    (analyze ~file:"lib/obs/fixture.ml"
       "let f m g = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) g");
  check_silent "unlock on both branches"
    (analyze ~file:"lib/obs/fixture.ml"
       "let f m c = Mutex.lock m; if c then Mutex.unlock m else Mutex.unlock m");
  check_fires "unlock on only one branch" "lock-discipline"
    (analyze ~file:"lib/obs/fixture.ml"
       "let f m c g = Mutex.lock m; if c then Mutex.unlock m else g ()")

let test_blocking_under_lock () =
  let fired =
    analyze ~file:"lib/obs/fixture.ml"
      "let f m pool xs g = Mutex.lock m; let r = Pool.parallel_map pool xs ~f:g in Mutex.unlock \
       m; r"
  in
  Alcotest.(check bool) "parallel_map under a held lock: fires" true
    (List.exists (fun f -> f.Lint.rule = Lint.Lock_discipline
                           && String.length f.Lint.symbol >= 9
                           && String.sub f.Lint.symbol 0 9 = "blocking:")
       fired);
  check_silent "parallel_map after the unlock"
    (analyze ~file:"lib/obs/fixture.ml"
       "let f m pool xs g = Mutex.lock m; Mutex.unlock m; Pool.parallel_map pool xs ~f:g")

(* --- hot-path ------------------------------------------------------------- *)

let test_hot_path () =
  check_fires "Random in a hot module" "hot-path" (analyze ~hot:true "let f () = Random.int 3");
  check_fires "stdout printing in a hot module" "hot-path"
    (analyze ~hot:true "let f () = Printf.printf \"x\"");
  check_fires "Sys.time in a hot module" "hot-path" (analyze ~hot:true "let f () = Sys.time ()");
  check_silent "the same calls in a cold module"
    (analyze ~file:"bench/fixture.ml" ~hot:false
       "let f () = Random.int 3\nlet g () = Printf.printf \"x\"");
  check_silent "Printf.sprintf is pure and allowed when hot"
    (analyze ~hot:true "let f n = Printf.sprintf \"%d\" n")

let test_queue_depth_check () =
  check_fires "unguarded Queue.add in a hot module" "hot-path"
    (analyze ~hot:true "let f q x = Queue.add x q");
  check_fires "unguarded Queue.push in a hot module" "hot-path"
    (analyze ~hot:true "let f q x = Queue.push x q");
  check_silent "Queue.add under a Queue.length depth check"
    (analyze ~hot:true "let f q x = if Queue.length q < 64 then Queue.add x q");
  check_silent "depth check in the else branch too"
    (analyze ~hot:true
       "let f q x = if Queue.length q >= 64 then false else begin Queue.add x q; true end");
  check_silent "unguarded Queue.add in a cold module"
    (analyze ~file:"bench/fixture.ml" ~hot:false "let f q x = Queue.add x q");
  (* a guard on something other than the queue's depth does not count *)
  check_fires "non-depth guard is not admission control" "hot-path"
    (analyze ~hot:true "let f q x ok = if ok then Queue.add x q")

(* --- hygiene -------------------------------------------------------------- *)

let test_hygiene () =
  check_fires "Obj.magic" "hygiene" (analyze ~file:"bench/fixture.ml" "let f x = Obj.magic x");
  check_fires "Printexc.register_printer" "hygiene"
    (analyze ~file:"bench/fixture.ml"
       "let () = Printexc.register_printer (function Exit -> Some \"exit\" | _ -> None)");
  check_fires "assert false" "hygiene"
    (analyze ~file:"bench/fixture.ml" "let f = function Some v -> v | None -> assert false");
  check_silent "a meaningful assertion" (analyze ~file:"bench/fixture.ml" "let f x = assert (x > 0)")

(* --- hot-module reachability --------------------------------------------- *)

let test_hot_reachability () =
  let parse file src = (file, Driver.parse_string ~file src) in
  let parsed =
    [
      parse "lib/a.ml" "let go () = B.step ()";
      parse "lib/b.ml" "let step () = 1";
      parse "lib/c.ml" "let unused () = 2";
    ]
  in
  let hot = Deps.hot_files ~roots:[ "lib/a.ml" ] parsed in
  Alcotest.(check (list string))
    "reachable set from the root" [ "lib/a.ml"; "lib/b.ml" ] (Deps.Sset.elements hot)

(* --- unused-export ---------------------------------------------------------- *)

let unused_exports ~interfaces ~impls =
  Deps.unused_exports
    ~interfaces:(List.map (fun (file, src) -> (file, Driver.parse_interface ~file src)) interfaces)
    ~impls:(List.map (fun (file, src) -> (file, Driver.parse_string ~file src)) impls)
  |> List.map (fun f -> f.Lint.symbol)

let wire_mli = ("lib/core/wire.mli", "val used : int -> int
val spare : int -> int")
let wire_ml = ("lib/core/wire.ml", "let spare x = x
let used x = spare x")

let test_unused_export () =
  Alcotest.(check (list string)) "named nowhere but its own module: flagged" [ "spare" ]
    (unused_exports ~interfaces:[ wire_mli ] ~impls:[ wire_ml; ("lib/a.ml", "let x = Wire.used 1") ]);
  Alcotest.(check (list string)) "named by another module: silent" []
    (unused_exports ~interfaces:[ wire_mli ]
       ~impls:[ wire_ml; ("lib/a.ml", "let x = Wire.used (Topo_core.Wire.spare 1)") ]);
  Alcotest.(check (list string)) "reached through a module alias, open and local open: silent" []
    (unused_exports ~interfaces:[ wire_mli ]
       ~impls:
         [
           wire_ml;
           ("lib/a.ml", "module W = Wire
let x = W.used 1");
           ("lib/b.ml", "open Wire
let y = Wire.(spare 2)");
         ]);
  Alcotest.(check (list string)) "open then bare name: silent" []
    (unused_exports ~interfaces:[ wire_mli ] ~impls:[ ("lib/a.ml", "open Wire
let x = used (spare 1)") ]);
  Alcotest.(check (list string)) "nested module vals are exports too" [ "Vec.pop" ]
    (unused_exports
       ~interfaces:[ ("lib/t.mli", "module Vec : sig val push : int -> unit val pop : unit -> int end") ]
       ~impls:[ ("lib/a.ml", "let () = T.Vec.push 1") ]);
  Alcotest.(check (list string)) "module types declare shapes, not exports" []
    (unused_exports ~interfaces:[ ("lib/t.mli", "module type S = sig val f : int end") ] ~impls:[])

(* A throwaway workspace: [files] are (root-relative path, contents). *)
let with_tree files f =
  let root = Filename.temp_file "topolint" "" in
  Sys.remove root;
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  List.iter
    (fun (rel, text) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      Out_channel.with_open_bin path (fun oc -> output_string oc text))
    files;
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

let export_findings report =
  List.filter_map
    (fun ((f : Lint.finding), reason) ->
      if f.Lint.rule = Lint.Unused_export then Some (f.Lint.symbol, reason <> None) else None)
    report.Driver.findings

let test_unused_export_driver () =
  let tree =
    [
      ("lib/m.mli", "val from_bin : int
val from_test : int
val nowhere : int");
      ("lib/m.ml", "let from_bin = 1
let from_test = 2
let nowhere = 3");
      ("bin/main.ml", "let () = print_int M.from_bin");
      ("test/t.ml", "let () = print_int M.from_test");
    ]
  in
  with_tree tree (fun root ->
      let run allow_text = Driver.run ~root ~paths:[ "lib"; "bin" ] ~allow_text () in
      let r = run "" in
      Alcotest.(check (list (pair string bool)))
        "a bin/ caller keeps an export; a test/ caller does not" [ ("from_test", false); ("nowhere", false) ]
        (export_findings r);
      Alcotest.(check bool) "unallowlisted exports fail the run" false (Driver.ok r);
      let r =
        run
          "unused-export lib/m.mli from_test -- test/t.ml reads it
           unused-export lib/m.mli nowhere -- test/gone.ml once read it
           unused-export lib/m.mli deleted -- test/t.ml read it before it went
"
      in
      Alcotest.(check (list (pair string bool)))
        "allow entries cover the test-only export" [ ("from_test", true); ("nowhere", true) ]
        (export_findings r);
      Alcotest.(check bool) "covered exports pass" true (Driver.ok r);
      Alcotest.(check (list string)) "an entry for a deleted export is reported unused" [ "deleted" ]
        (List.map (fun (e : Lint.allow_entry) -> e.Lint.a_symbol) r.Driver.unused_allow))

(* Only the reference directories may be absent: a mistyped PATH must
   fail the run rather than lint nothing and pass. *)
let test_missing_path_fails () =
  with_tree [ ("lib/m.ml", "let x = 1") ] (fun root ->
      Alcotest.(check bool) "absent reference dirs are skipped" true
        (Driver.ok (Driver.run ~root ~paths:[ "lib" ] ~allow_text:"" ()));
      match Driver.run ~root ~paths:[ "lib"; "bni" ] ~allow_text:"" () with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail "a missing PATH was linted as empty")

let test_unused_export_allow_names_a_test () =
  let entries, errors =
    Lint.parse_allow
      "unused-export lib/m.mli f -- test/suite_m.ml checks the formula
       unused-export lib/m.mli g -- kept for later
"
  in
  Alcotest.(check int) "an entry naming a test parses" 1 (List.length entries);
  Alcotest.(check int) "an entry naming no test is malformed" 1 (List.length errors)

(* --- allowlist grammar ---------------------------------------------------- *)

let test_allow_grammar () =
  let entries, errors =
    Lint.parse_allow
      "# comment\n\
       hygiene lib/x.ml obj-magic -- documented FFI boundary\n\
       mutable-state lib/y.ml field:t.* -- single-owner record\n\
       hygiene lib/z.ml no-reason\n\
       hygiene lib/z.ml sym --    \n"
  in
  Alcotest.(check int) "two well-formed entries" 2 (List.length entries);
  Alcotest.(check int) "missing and empty reasons both rejected" 2 (List.length errors);
  let finding =
    { Lint.rule = Lint.Mutable_state; file = "lib/y.ml"; line = 3; col = 0;
      symbol = "field:t.count"; message = "" }
  in
  (match Lint.allow_for entries finding with
  | Some e -> Alcotest.(check string) "wildcard entry matches" "single-owner record" e.Lint.reason
  | None -> Alcotest.fail "wildcard entry did not match");
  Alcotest.(check bool) "matched entry marked used" true
    (List.exists (fun e -> e.Lint.used) entries)

let test_driver_allowlisting () =
  let report =
    Driver.run ~root:"/nonexistent-root-for-fixtures" ~paths:[]
      ~allow_text:"hygiene lib/x.ml obj-magic -- never matched\n" ()
  in
  Alcotest.(check bool) "unused allow entries reported" true (report.Driver.unused_allow <> []);
  Alcotest.(check bool) "unused entries alone do not fail the run" true (Driver.ok report)

(* --- the real tree lints clean -------------------------------------------- *)

let rec find_workspace_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then failwith "suite_lint: no dune-project above the test cwd"
    else find_workspace_root parent

let test_tree_is_clean () =
  (* dune runs tests under _build/default/test; the copied workspace root
     above it holds the same lib/, bin/ and lint.allow the @lint-src
     alias checks. *)
  let root = find_workspace_root (Sys.getcwd ()) in
  let report = Driver.run ~root ~paths:[ "lib"; "bin" ] () in
  Alcotest.(check int) "zero unallowlisted findings" 0 report.Driver.unallowed;
  Alcotest.(check (list string)) "no malformed lint.allow lines" [] report.Driver.allow_errors;
  Alcotest.(check int) "no unused lint.allow entries" 0 (List.length report.Driver.unused_allow);
  Alcotest.(check bool) "hot set includes the query engine's dependencies" true
    (List.mem "lib/relational/iterator.ml" report.Driver.hot);
  Alcotest.(check bool) "scan covered the tree" true (List.length report.Driver.files > 50)

let suites =
  [
    ( "lint.rules",
      [
        Alcotest.test_case "mutable fields need a protection idiom" `Quick test_mutable_field;
        Alcotest.test_case "mutation sites track provenance" `Quick test_mutation_provenance;
        Alcotest.test_case "locks release on every path" `Quick test_lock_release;
        Alcotest.test_case "no blocking calls under a held lock" `Quick test_blocking_under_lock;
        Alcotest.test_case "hot-path denylist" `Quick test_hot_path;
        Alcotest.test_case "queue growth needs a depth check" `Quick test_queue_depth_check;
        Alcotest.test_case "hygiene: Obj.magic and assert false" `Quick test_hygiene;
        Alcotest.test_case "hot-module reachability" `Quick test_hot_reachability;
        Alcotest.test_case "unused exports: name match over other modules" `Quick test_unused_export;
        Alcotest.test_case "unused exports: reference dirs and allow entries" `Quick
          test_unused_export_driver;
        Alcotest.test_case "a missing PATH fails the run" `Quick test_missing_path_fails;
      ] );
    ( "lint.allowlist",
      [
        Alcotest.test_case "grammar: reasons are mandatory" `Quick test_allow_grammar;
        Alcotest.test_case "driver reports unused entries" `Quick test_driver_allowlisting;
        Alcotest.test_case "unused-export entries name a test" `Quick
          test_unused_export_allow_names_a_test;
      ] );
    ( "lint.tree",
      [ Alcotest.test_case "the whole tree lints clean" `Quick test_tree_is_clean ] );
  ]
