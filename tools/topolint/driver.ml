(* Orchestration: scan the tree, parse, build the hot-module set, run
   the rules, match findings against lint.allow, render human and JSON
   reports.  Lives in the library so test/suite_lint.ml can run the
   exact pipeline the executable and the @lint-src alias run. *)

type report = {
  files : string list;  (* scanned, root-relative *)
  hot : string list;  (* hot-path modules (reachable from the roots) *)
  findings : (Lint.finding * string option) list;  (* finding, allow reason *)
  unallowed : int;
  allow_errors : string list;  (* malformed lint.allow lines *)
  unused_allow : Lint.allow_entry list;
}

let ok r = r.unallowed = 0 && r.allow_errors = []

let default_hot_roots = [ "lib/core/engine.ml"; "lib/core/serve.ml"; "lib/core/shard.ml" ]

(* Every implementation under these directories is a potential caller:
   an export of a lib/ interface is live when one of them names it.
   test/ is deliberately absent — an export only tests read needs a
   lint.allow entry naming the test. *)
let reference_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "tools" ]

(* ------------------------------------------------------------------ *)
(* File discovery                                                      *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Files with suffix [ext] under [rel]; a missing path raises
   [Sys_error]. *)
let rec files_under ~ext root rel =
  let abs = if rel = "" then root else Filename.concat root rel in
  if Sys.is_directory abs then
    Sys.readdir abs |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name ->
           if name = "" || name.[0] = '.' || name = "_build" then []
           else files_under ~ext root (if rel = "" then name else rel ^ "/" ^ name))
  else if Filename.check_suffix rel ext then [ rel ]
  else []

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

let parse_with parse ~file text =
  let lexbuf = Lexing.from_string text in
  lexbuf.Lexing.lex_curr_p <- { lexbuf.Lexing.lex_curr_p with Lexing.pos_fname = file };
  parse lexbuf

let parse_string = parse_with Parse.implementation
let parse_interface = parse_with Parse.interface

let parse_one parse ~root rel =
  let abs = Filename.concat root rel in
  match parse ~file:rel (read_file abs) with
  | str -> Ok str
  | exception e ->
      let line, msg =
        match e with
        | Syntaxerr.Error err ->
            let loc = Syntaxerr.location_of_error err in
            (loc.Location.loc_start.Lexing.pos_lnum, "syntax error")
        | e -> (1, Printexc.to_string e)
      in
      Error
        {
          Lint.rule = Lint.Parse_error;
          file = rel;
          line;
          col = 0;
          symbol = "parse";
          message = Printf.sprintf "could not parse: %s" msg;
        }

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)

let parse_all parse ~root files =
  let parsed, errors =
    List.fold_left
      (fun (ok, errs) rel ->
        match parse_one parse ~root rel with
        | Ok ast -> ((rel, ast) :: ok, errs)
        | Error f -> (ok, f :: errs))
      ([], []) files
  in
  (List.rev parsed, errors)

(* [run ~root ~paths ()] lints every .ml under [paths] (root-relative
   directories or files), and checks every export of a lib/ .mli under
   [paths] against the implementations under [reference_dirs].
   [allow_file] defaults to <root>/lint.allow when present; pass
   [~allow_text] to bypass the filesystem (tests). *)
let run ?(hot_roots = default_hot_roots) ?allow_file ?allow_text ~root ~paths () =
  let files = List.concat_map (files_under ~ext:".ml" root) paths in
  let callers =
    List.filter
      (fun f -> not (List.mem f files))
      (reference_dirs
      |> List.filter (fun d -> Sys.file_exists (Filename.concat root d))
      |> List.concat_map (files_under ~ext:".ml" root))
  in
  let interfaces =
    List.concat_map (files_under ~ext:".mli" root) paths
    |> List.filter (String.starts_with ~prefix:"lib/")
  in
  let parsed, parse_errors = parse_all parse_string ~root files in
  let caller_asts, caller_errors = parse_all parse_string ~root callers in
  let sigs, sig_errors = parse_all parse_interface ~root interfaces in
  let hot = Deps.hot_files ~roots:hot_roots parsed in
  let findings =
    parse_errors @ caller_errors @ sig_errors
    @ Deps.unused_exports ~interfaces:sigs ~impls:(parsed @ caller_asts)
    @ List.concat_map
        (fun (rel, str) -> Rules.analyze ~file:rel ~hot:(Deps.Sset.mem rel hot) str)
        parsed
  in
  let findings = List.sort Lint.compare_finding findings in
  let allow_text =
    match allow_text with
    | Some t -> Some t
    | None -> (
        let path =
          match allow_file with Some f -> f | None -> Filename.concat root "lint.allow"
        in
        match read_file path with t -> Some t | exception Sys_error _ -> None)
  in
  let entries, allow_errors =
    match allow_text with None -> ([], []) | Some t -> Lint.parse_allow t
  in
  let matched =
    List.map
      (fun f ->
        match Lint.allow_for entries f with
        | Some e -> (f, Some e.Lint.reason)
        | None -> (f, None))
      findings
  in
  let unallowed = List.length (List.filter (fun (_, r) -> r = None) matched) in
  {
    files;
    hot = Deps.Sset.elements hot;
    findings = matched;
    unallowed;
    allow_errors;
    unused_allow = List.filter (fun e -> not e.Lint.used) entries;
  }

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

module J = Topo_obs.Json

let json_of_report r =
  J.Obj
    [
      ("version", J.int 1);
      ("files_scanned", J.int (List.length r.files));
      ("hot_modules", J.Arr (List.map (fun f -> J.Str f) r.hot));
      ("findings", J.Arr (List.map (fun (f, reason) -> Lint.json_of_finding ?reason f) r.findings));
      ("unallowlisted", J.int r.unallowed);
      ("allowlisted", J.int (List.length r.findings - r.unallowed));
      ("allow_errors", J.Arr (List.map (fun e -> J.Str e) r.allow_errors));
      ( "unused_allow_entries",
        J.Arr
          (List.map
             (fun (e : Lint.allow_entry) ->
               J.Str (Printf.sprintf "line %d: %s %s %s" e.Lint.a_line e.Lint.a_rule e.Lint.a_file e.Lint.a_symbol))
             r.unused_allow) );
      ("ok", J.Bool (ok r));
    ]

let write_json path r =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (J.to_string ~pretty:true (json_of_report r) ^ "\n"))

let print_report r =
  List.iter
    (fun (f, reason) ->
      match reason with
      | None -> print_endline (Lint.finding_to_string f)
      | Some _ -> ())
    r.findings;
  List.iter (fun e -> print_endline ("lint.allow: " ^ e)) r.allow_errors;
  List.iter
    (fun (e : Lint.allow_entry) ->
      Printf.printf "lint.allow:%d: unused entry: %s %s %s\n" e.Lint.a_line e.Lint.a_rule e.Lint.a_file
        e.Lint.a_symbol)
    r.unused_allow;
  let allowed = List.length r.findings - r.unallowed in
  Printf.printf "topolint: %d files, %d hot modules, %d findings (%d allowlisted, %d blocking)\n"
    (List.length r.files) (List.length r.hot) (List.length r.findings) allowed r.unallowed
