(* Module dependency graph over the scanned sources, for the hot-path
   rule: a module is HOT when it is reachable from one of the roots
   (Engine.run_request / Serve.exec live in lib/core/engine.ml and
   lib/core/serve.ml) by following module references.

   References are collected purely syntactically: every capitalized
   component of every long identifier (values, constructors, types,
   module expressions) is a candidate module name, and candidates are
   kept only when some scanned file defines a module of that name.
   Library wrapper prefixes (Topo_util, Topo_sql, ...) simply resolve to
   nothing and drop out; module basenames are unique across the tree, so
   the mapping name -> file is unambiguous. *)

module Sset = Set.Make (String)
module Smap = Map.Make (String)

let module_name_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let is_uppercase_ident s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

(* Every capitalized component anywhere in the structure: identifiers,
   constructors, record labels' paths, type constructors, module
   expressions and opens all flow through the same two hooks. *)
let referenced_names (str : Parsetree.structure) =
  let acc = ref Sset.empty in
  let add_lid lid =
    List.iter
      (fun c -> if is_uppercase_ident c then acc := Sset.add c !acc)
      (Longident.flatten lid)
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } -> add_lid txt
          | Parsetree.Pexp_construct ({ txt; _ }, _) -> add_lid txt
          | Parsetree.Pexp_field (_, { txt; _ }) -> add_lid txt
          | Parsetree.Pexp_setfield (_, { txt; _ }, _) -> add_lid txt
          | Parsetree.Pexp_record (fields, _) ->
              List.iter (fun ({ Asttypes.txt; _ }, _) -> add_lid txt) fields
          | Parsetree.Pexp_new { txt; _ } -> add_lid txt
          | _ -> ());
          default_iterator.expr self e);
      typ =
        (fun self t ->
          (match t.Parsetree.ptyp_desc with
          | Parsetree.Ptyp_constr ({ txt; _ }, _) -> add_lid txt
          | _ -> ());
          default_iterator.typ self t);
      pat =
        (fun self p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_construct ({ txt; _ }, _) -> add_lid txt
          | _ -> ());
          default_iterator.pat self p);
      module_expr =
        (fun self m ->
          (match m.Parsetree.pmod_desc with
          | Parsetree.Pmod_ident { txt; _ } -> add_lid txt
          | _ -> ());
          default_iterator.module_expr self m);
    }
  in
  it.structure it str;
  !acc

(* [hot_files ~roots parsed] is the set of files (workspace-relative
   paths) reachable from the root files through the reference graph.
   Roots absent from [parsed] contribute nothing. *)
let hot_files ~roots parsed =
  let by_name =
    List.fold_left (fun m (file, _) -> Smap.add (module_name_of_file file) file m) Smap.empty parsed
  in
  let edges =
    List.fold_left
      (fun m (file, str) ->
        let deps =
          Sset.fold
            (fun name acc ->
              match Smap.find_opt name by_name with
              | Some f when f <> file -> Sset.add f acc
              | Some _ | None -> acc)
            (referenced_names str) Sset.empty
        in
        Smap.add file deps m)
      Smap.empty parsed
  in
  let rec visit seen file =
    if Sset.mem file seen then seen
    else
      let seen = Sset.add file seen in
      match Smap.find_opt file edges with
      | None -> seen
      | Some deps -> Sset.fold (fun d acc -> visit acc d) deps seen
  in
  List.fold_left visit Sset.empty roots
