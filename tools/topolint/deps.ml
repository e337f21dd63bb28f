(* The cross-module analyses, both over the same syntactic reference
   walk.

   - Hot-path reachability: a module is HOT when it is reachable from
     one of the roots (Engine.run_request / Serve.exec live in
     lib/core/engine.ml and lib/core/serve.ml) by following module
     references.  Every capitalized component of every long identifier
     (values, constructors, types, module expressions) is a candidate
     module name, and candidates are kept only when some scanned file
     defines a module of that name.  Library wrapper prefixes
     (Topo_util, Topo_sql, ...) simply resolve to nothing and drop out;
     module basenames are unique across the tree, so the mapping
     name -> file is unambiguous.
   - Export reachability (rule unused-export): a [val] in an interface
     is live when some other implementation names it, as the last
     component of a value identifier.  The match is by name alone, so
     it over-counts uses (any [f] or [M.f] keeps every export named [f]
     alive) and never flags an export reached through [open], a
     local open or a module alias. *)

module Sset = Set.Make (String)
module Smap = Map.Make (String)

let module_name_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let is_uppercase_ident s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

type refs = {
  modules : Sset.t;  (* capitalized components: candidate module names *)
  values : Sset.t;  (* last components of value identifiers *)
}

(* One walk collects both: identifiers, constructors, record labels'
   paths, type constructors, module expressions and opens all flow
   through the same hooks. *)
let references (str : Parsetree.structure) =
  let modules = ref Sset.empty and values = ref Sset.empty in
  let add_lid lid =
    List.iter
      (fun c -> if is_uppercase_ident c then modules := Sset.add c !modules)
      (Longident.flatten lid)
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } ->
              add_lid txt;
              values := Sset.add (Longident.last txt) !values
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
  { modules = !modules; values = !values }

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
            (references str).modules Sset.empty
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

(* [exports sg] is every [val] of an interface as (qualified name, bare
   name, location), including those of nested [module M : sig ... end]
   declarations (qualified [M.v]); module types declare shapes, not
   exports, and are skipped. *)
let exports (sg : Parsetree.signature) =
  let rec go prefix sg =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd -> [ (prefix ^ vd.pval_name.txt, vd.pval_name.txt, vd.pval_loc) ]
        | Psig_module
            { pmd_name = { txt = Some m; _ }; pmd_type = { pmty_desc = Pmty_signature sg; _ }; _ } ->
            go (prefix ^ m ^ ".") sg
        | _ -> [])
      sg
  in
  go "" sg

(* [unused_exports ~interfaces ~impls] flags every export of an
   interface (file.mli) that no implementation other than its own
   (file.ml) names. *)
let unused_exports ~interfaces ~impls =
  let callers =
    List.fold_left
      (fun m (file, str) ->
        Sset.fold
          (fun v m ->
            Smap.update v (fun fs -> Some (Sset.add file (Option.value fs ~default:Sset.empty))) m)
          (references str).values m)
      Smap.empty impls
  in
  List.concat_map
    (fun (mli, sg) ->
      let own = Filename.remove_extension mli ^ ".ml" in
      let modname = module_name_of_file mli in
      List.filter_map
        (fun (name, bare, (loc : Location.t)) ->
          match Smap.find_opt bare callers with
          | Some fs when not (Sset.is_empty (Sset.remove own fs)) -> None
          | _ ->
              let pos = loc.loc_start in
              Some
                {
                  Lint.rule = Lint.Unused_export;
                  file = mli;
                  line = pos.pos_lnum;
                  col = pos.pos_cnum - pos.pos_bol;
                  symbol = name;
                  message =
                    Printf.sprintf
                      "export %s.%s is named by no other module; drop it from the interface, or \
                       allowlist it naming the test that reads it"
                      modname name;
                })
        (exports sg))
    interfaces
