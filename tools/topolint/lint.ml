(* Findings and allowlist plumbing for topolint, the source-level
   lint (DESIGN.md "Source-level static analysis").

   A finding is keyed by (rule, file, symbol): the symbol is a stable,
   line-number-free handle — a declared field, a called function, the
   enclosing top-level binding — so `lint.allow` entries survive
   unrelated edits to the file.  Allow entries are one per line:

     <rule-id> <relative/file.ml> <symbol> -- <reason>

   (an unused-export entry names the .mli and the export, and its reason
   must name the test/ file that reads the export).

   The reason is mandatory (an allowlist without written justification
   is how invariants rot); a trailing '*' in <symbol> prefix-matches,
   so one reasoned entry can cover a family of sites in one file. *)

type rule = Mutable_state | Lock_discipline | Hot_path | Hygiene | Unused_export | Parse_error

let rule_id = function
  | Mutable_state -> "mutable-state"
  | Lock_discipline -> "lock-discipline"
  | Hot_path -> "hot-path"
  | Hygiene -> "hygiene"
  | Unused_export -> "unused-export"
  | Parse_error -> "parse-error"

type finding = {
  rule : rule;
  file : string;  (* workspace-relative, '/'-separated *)
  line : int;
  col : int;
  symbol : string;
  message : string;
}

let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with 0 -> Int.compare a.col b.col | c -> c)
  | c -> c

type allow_entry = {
  a_rule : string;
  a_file : string;
  a_symbol : string;  (* trailing '*' prefix-matches *)
  reason : string;
  a_line : int;  (* line in the allow file, for diagnostics *)
  mutable used : bool;
}

(* ------------------------------------------------------------------ *)
(* Allowlist                                                           *)

let is_blank line =
  String.length (String.trim line) = 0 || (String.trim line).[0] = '#'

(* An export that only tests read stays only with an entry whose reason
   names the test: "test/suite_x.ml" anywhere in the reason. *)
let mentions_test reason =
  let n = String.length reason in
  let rec at i = i + 5 <= n && (String.sub reason i 5 = "test/" || at (i + 1)) in
  at 0

(* One entry: three whitespace-separated tokens, then " -- ", then the
   reason.  Returns [Error msg] on malformed lines so the tool can fail
   loudly rather than silently ignore a suppression. *)
let parse_allow_line ~lineno line =
  let sep = " -- " in
  let rec find_sep i =
    if i + String.length sep > String.length line then None
    else if String.sub line i (String.length sep) = sep then Some i
    else find_sep (i + 1)
  in
  match find_sep 0 with
  | None -> Error (Printf.sprintf "line %d: missing ' -- <reason>'" lineno)
  | Some i ->
      let head = String.sub line 0 i in
      let reason =
        String.trim (String.sub line (i + String.length sep) (String.length line - i - String.length sep))
      in
      if reason = "" then Error (Printf.sprintf "line %d: empty reason" lineno)
      else
        let tokens =
          List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim head))
        in
        (match tokens with
        | [ a_rule; _; _ ] when a_rule = rule_id Unused_export && not (mentions_test reason) ->
            Error
              (Printf.sprintf
                 "line %d: an unused-export entry must name the test/ file that reads the export" lineno)
        | [ a_rule; a_file; a_symbol ] ->
            Ok { a_rule; a_file; a_symbol; reason; a_line = lineno; used = false }
        | _ ->
            Error (Printf.sprintf "line %d: expected '<rule> <file> <symbol> -- <reason>'" lineno))

let parse_allow text =
  let entries = ref [] and errors = ref [] in
  List.iteri
    (fun i line ->
      if not (is_blank line) then
        match parse_allow_line ~lineno:(i + 1) line with
        | Ok e -> entries := e :: !entries
        | Error msg -> errors := msg :: !errors)
    (String.split_on_char '\n' text);
  (List.rev !entries, List.rev !errors)

let symbol_matches ~pattern symbol =
  let n = String.length pattern in
  if n > 0 && pattern.[n - 1] = '*' then
    let prefix = String.sub pattern 0 (n - 1) in
    String.length symbol >= String.length prefix
    && String.sub symbol 0 (String.length prefix) = prefix
  else pattern = symbol

(* First matching entry wins; marks it used. *)
let allow_for entries (f : finding) =
  List.find_opt
    (fun e ->
      let hit = e.a_rule = rule_id f.rule && e.a_file = f.file && symbol_matches ~pattern:e.a_symbol f.symbol in
      if hit then e.used <- true;
      hit)
    entries

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let finding_to_string ?reason f =
  let suffix =
    match reason with None -> "" | Some r -> Printf.sprintf "  [allowed: %s]" r
  in
  Printf.sprintf "%s:%d:%d: [%s] %s  (symbol: %s)%s" f.file f.line f.col (rule_id f.rule)
    f.message f.symbol suffix

module J = Topo_obs.Json

let json_of_finding ?reason f =
  let base =
    [
      ("rule", J.Str (rule_id f.rule));
      ("file", J.Str f.file);
      ("line", J.int f.line);
      ("col", J.int f.col);
      ("symbol", J.Str f.symbol);
      ("message", J.Str f.message);
      ("allowed", J.Bool (reason <> None));
    ]
  in
  J.Obj (match reason with None -> base | Some r -> base @ [ ("reason", J.Str r) ])
