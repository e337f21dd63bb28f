(* CLI entry point.

     topolint [--root DIR] [--allow FILE] [--json FILE] [PATH ...]

   PATHs are root-relative directories or files (default: lib bin).
   Every .ml under them is linted, and every val of a lib/ .mli under
   them is checked against its callers (Driver.reference_dirs).
   Exits 1 when any finding is not covered by a reasoned lint.allow
   entry, or when lint.allow itself is malformed. *)

let () =
  let root = ref "." in
  let allow = ref None in
  let json = ref None in
  let paths = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR workspace root (default .)");
      ("--allow", Arg.String (fun f -> allow := Some f), "FILE allowlist (default <root>/lint.allow)");
      ("--json", Arg.String (fun f -> json := Some f), "FILE write a JSON report");
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) "topolint [options] [paths]";
  let paths = match List.rev !paths with [] -> [ "lib"; "bin" ] | ps -> ps in
  let report = Topolint_lib.Driver.run ?allow_file:!allow ~root:!root ~paths () in
  (match !json with Some f -> Topolint_lib.Driver.write_json f report | None -> ());
  Topolint_lib.Driver.print_report report;
  if not (Topolint_lib.Driver.ok report) then exit 1
