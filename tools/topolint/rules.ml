(* The four rule groups, as purely syntactic Parsetree checks.

   - mutable-state (lib/core, lib/relational, lib/graph, lib/util only):
     mutable record fields, module-level mutable bindings, and mutation
     sites of Hashtbl/Dyn/Array/ref values that are not provably local
     must live in a module that declares a protection idiom (a Mutex.t
     or Domain.DLS confinement; Atomic.t values are never flagged), or
     carry a reasoned lint.allow entry.
   - lock-discipline (everywhere): a Mutex.lock must be released on all
     syntactic paths of its continuation (Fun.protect with an unlocking
     ~finally, or a matching Mutex.unlock in every branch), and no
     blocking call (Pool.parallel_map/fold, Domain.join, an iterator's
     .next field) may appear while the lock is syntactically held.
   - hot-path (modules reachable from Engine.run_request / Serve.exec):
     no Random.*, Sys.time or stdout printing; and no unbounded
     queue growth — a Queue.add/Queue.push must sit under an enclosing
     [if] whose condition consults Queue.length (the admission-control
     idiom), or carry a reasoned lint.allow entry.  An unguarded add in
     a serving module grows the queue and every queued request's latency
     without bound exactly when the system is overloaded.
   - hygiene (everywhere scanned): no Obj.magic, no assert false, no
     Printexc.register_printer (a process-global printer; a closed error
     type renders itself).

   The checks look at provenance, not values: a mutation target whose
   head identifier was let-bound in the same top-level item to a
   fresh-value constructor (create/make/init/copy/map/...) is local by
   construction and passes; anything else — a field access, a function
   parameter, a module-level name — is treated as potentially shared. *)

open Parsetree

let scope_dirs = [ "lib/core/"; "lib/relational/"; "lib/graph/"; "lib/util/" ]

let in_state_scope file =
  List.exists (fun d -> String.length file >= String.length d && String.sub file 0 (String.length d) = d) scope_dirs

(* ------------------------------------------------------------------ *)
(* Longident / application helpers                                     *)

let lid_str lid = String.concat "." (Longident.flatten lid)

let path_of_fn (e : expression) =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (lid_str txt) | _ -> None

let apply_parts (e : expression) =
  match e.pexp_desc with
  | Pexp_apply (fn, args) -> (
      match path_of_fn fn with Some p -> Some (p, args) | None -> None)
  | _ -> None

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* "Mutex.lock" also matches "Stdlib.Mutex.lock". *)
let path_is name p = p = name || ends_with ~suffix:("." ^ name) p

let is_call name e = match apply_parts e with Some (p, _) -> path_is name p | None -> false

exception Found of Location.t * string

(* Does [e] contain a sub-expression satisfying [pred]?  Descends into
   lambdas and every other construct via the default iterator. *)
let expr_contains pred (e : expression) =
  let open Ast_iterator in
  let it =
    { default_iterator with expr = (fun self x -> if pred x then raise Exit; default_iterator.expr self x) }
  in
  try
    it.expr it e;
    false
  with Exit -> true

(* ------------------------------------------------------------------ *)
(* Provenance: locally-created values                                  *)

(* Last components of constructor-like functions: a target let-bound to
   an application of one of these is a fresh value owned by the
   enclosing item. *)
let creator_ops =
  [
    "create"; "with_capacity"; "make"; "make_matrix"; "init"; "copy"; "map"; "mapi"; "sub"; "concat";
    "append";
    "of_list"; "of_array"; "of_seq"; "to_array"; "to_list"; "filter"; "create_float"; "build";
    "empty";
  ]

let rec strip_constraint (e : expression) =
  match e.pexp_desc with Pexp_constraint (e, _) -> strip_constraint e | _ -> e

let is_creator_app e =
  match apply_parts (strip_constraint e) with
  | Some (p, _) ->
      p = "ref"
      ||
      let last =
        match List.rev (String.split_on_char '.' p) with l :: _ -> l | [] -> p
      in
      List.mem last creator_ops
  | None -> (
      (* [| ... |] and [] literals are fresh too *)
      match (strip_constraint e).pexp_desc with
      | Pexp_array _ -> true
      | Pexp_record _ -> true  (* a record literal is a fresh value too *)
      | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, _) -> true
      | _ -> false)

(* All identifiers let-bound anywhere inside [item] to a fresh value. *)
let local_creations (item : structure_item) =
  let acc = ref [] in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      value_binding =
        (fun self vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } when is_creator_app vb.pvb_expr -> acc := txt :: !acc
          | _ -> ());
          default_iterator.value_binding self vb);
    }
  in
  it.structure_item it item;
  !acc

(* Head identifier of a mutation target, looking through constraints and
   through container reads ([a.(i)], [Dyn.get d i], [fst t], ...), so
   that [columns.(c)] resolves to [columns]. *)
let rec head_ident (e : expression) =
  match (strip_constraint e).pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | Pexp_field (r, _) -> head_ident r  (* g.nodes resolves to g *)
  | Pexp_apply (fn, (_, arg) :: _) -> (
      match path_of_fn fn with
      | Some p when path_is "Array.get" p || path_is "Dyn.get" p || p = "fst" || p = "snd" ->
          head_ident arg
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Lock discipline                                                     *)

let is_lock e = is_call "Mutex.lock" e

let is_unlock e = is_call "Mutex.unlock" e

(* Fun.protect whose ~finally releases a mutex. *)
let is_protect_release e =
  match apply_parts e with
  | Some (p, args) when path_is "Fun.protect" p ->
      List.exists
        (fun (label, arg) ->
          match label with
          | Asttypes.Labelled "finally" -> expr_contains is_unlock arg
          | _ -> false)
        args
  | _ -> false

(* Every syntactic path through [e] reaches a Mutex.unlock (or a
   Fun.protect that releases). *)
let rec releases (e : expression) =
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> releases a || releases b
  | Pexp_let (_, vbs, body) -> List.exists (fun vb -> releases vb.pvb_expr) vbs || releases body
  | Pexp_ifthenelse (_, t, Some el) -> releases t && releases el
  | Pexp_ifthenelse (_, _, None) -> false
  | Pexp_match (_, cases) -> cases <> [] && List.for_all (fun c -> releases c.pc_rhs) cases
  | Pexp_try (body, cases) -> releases body && List.for_all (fun c -> releases c.pc_rhs) cases
  | Pexp_constraint (e, _) | Pexp_open (_, e) | Pexp_letmodule (_, _, e) -> releases e
  | Pexp_apply _ -> is_unlock e || is_protect_release e
  | _ -> false

(* Calls that may block for a long time or re-enter the pool. *)
let blocking_call e =
  match e.pexp_desc with
  | Pexp_apply (fn, _) -> (
      match fn.pexp_desc with
      | Pexp_ident { txt; _ } ->
          let p = lid_str txt in
          if
            ends_with ~suffix:"parallel_map" p || ends_with ~suffix:"parallel_fold" p
            || path_is "Domain.join" p
          then Some p
          else None
      | Pexp_field (_, { txt; _ }) ->
          (* an iterator pull: it.next (), it.Iterator.next () *)
          let last = match List.rev (Longident.flatten txt) with l :: _ -> l | [] -> "" in
          if last = "next" then Some ".next" else None
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Analysis context                                                    *)

type ctx = {
  file : string;
  state_scope : bool;  (* under the mutable-state rule's directories *)
  protected : bool;  (* module declares a Mutex.t or uses Domain.DLS *)
  hot : bool;
  mutable item : string;  (* enclosing top-level binding, for symbols *)
  mutable locals : string list;  (* creation-bound idents of the item *)
  mutable guarded_queues : Location.t list;
      (* Queue.add/push sites inside a Queue.length-checked [if] branch *)
  mutable out : Lint.finding list;
}

let emit ctx rule (loc : Location.t) symbol message =
  let p = loc.Location.loc_start in
  ctx.out <-
    {
      Lint.rule;
      file = ctx.file;
      line = p.Lexing.pos_lnum;
      col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      symbol;
      message;
    }
    :: ctx.out

(* ------------------------------------------------------------------ *)
(* Mutation sites (mutable-state rule)                                 *)

let mutating_op p =
  let parts = String.split_on_char '.' p in
  match List.rev parts with
  | op :: m :: _ -> (
      match m with
      | "Hashtbl" when List.mem op [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]
        ->
          Some ("Hashtbl." ^ op, 0)
      | "Dyn" when List.mem op [ "push"; "pop"; "set"; "clear" ] -> Some ("Dyn." ^ op, 0)
      | "Dyn" when op = "sort" -> Some ("Dyn.sort", 1)  (* sort cmp t *)
      | "Array" when List.mem op [ "set"; "fill"; "unsafe_set" ] -> Some ("Array." ^ op, 0)
      | "Array" when List.mem op [ "sort"; "stable_sort"; "fast_sort" ] ->
          Some ("Array." ^ op, 1)  (* sort cmp a *)
      | "Array" when op = "blit" -> Some ("Array.blit", 2)
      | "Bytes" when List.mem op [ "set"; "fill"; "blit"; "unsafe_set" ] -> Some ("Bytes." ^ op, 0)
      | _ -> None)
  | _ -> None

let check_mutation ctx e =
  match apply_parts e with
  | Some (p, args) when p = ":=" -> (
      match args with
      | (_, target) :: _ -> (
          match head_ident target with
          | Some x when List.mem x ctx.locals -> ()
          | _ ->
              emit ctx Lint.Mutable_state e.pexp_loc "call::="
                "assignment to a ref that is not provably local to this item")
      | [] -> ())
  | Some (p, args) -> (
      match mutating_op p with
      | None -> ()
      | Some (op, target_pos) -> (
          let positional = List.filter_map (function Asttypes.Nolabel, a -> Some a | _ -> None) args in
          match List.nth_opt positional target_pos with
          | None -> ()
          | Some target -> (
              match head_ident target with
              | Some x when List.mem x ctx.locals -> ()
              | _ ->
                  emit ctx Lint.Mutable_state e.pexp_loc ("call:" ^ op)
                    (Printf.sprintf
                       "%s on a value that is not provably local to this item (shared mutable state \
                        needs a Mutex/Atomic/DLS idiom in this module)"
                       op))))
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Hot-path denylist                                                   *)

let hot_denied p =
  let parts = String.split_on_char '.' p in
  let parts = match parts with "Stdlib" :: rest -> rest | _ -> parts in
  match parts with
  | "Random" :: _ -> Some "nondeterministic Random in a hot-path module"
  | [ "Sys"; "time" ] -> Some "Sys.time (wall-clock, coarse) in a hot-path module"
  | [ f ]
    when List.mem f
           [ "print_string"; "print_endline"; "print_newline"; "print_int"; "print_float"; "print_char" ]
    ->
      Some "stdout printing in a hot-path module"
  | [ "Printf"; "printf" ] | [ "Format"; "printf" ] | [ "Format"; "print_string" ]
  | [ "Format"; "print_newline" ] ->
      Some "stdout printing in a hot-path module"
  | _ -> None

(* Queue growth (hot-path rule): Queue.add/Queue.push must be depth-
   checked.  The walk is pre-order, so an [if Queue.length ... then/else]
   is visited before the adds inside it: its branches' add sites land in
   [ctx.guarded_queues] first, and the later visit of each add itself
   stays silent. *)

let is_queue_grow p = path_is "Queue.add" p || path_is "Queue.push" p

let queue_grow_sites (e : expression) =
  let acc = ref [] in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self x ->
          (match apply_parts x with
          | Some (p, _) when is_queue_grow p -> acc := x.pexp_loc :: !acc
          | _ -> ());
          default_iterator.expr self x);
    }
  in
  it.expr it e;
  !acc

(* ------------------------------------------------------------------ *)
(* Per-expression hook                                                 *)

let on_expr ctx (e : expression) =
  (* hygiene: Obj.magic or Printexc.register_printer anywhere (bare or
     applied) *)
  (match e.pexp_desc with
  | Pexp_ident { txt; _ } when path_is "Obj.magic" (lid_str txt) ->
      emit ctx Lint.Hygiene e.pexp_loc "obj-magic" "Obj.magic defeats the type system"
  | Pexp_ident { txt; _ } when path_is "Printexc.register_printer" (lid_str txt) ->
      emit ctx Lint.Hygiene e.pexp_loc "register-printer"
        "Printexc.register_printer is process-global: return a closed error type that renders \
         itself"
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ } ->
      emit ctx Lint.Hygiene e.pexp_loc
        ("assert-false:" ^ ctx.item)
        "assert false in library code: raise a descriptive error instead"
  | _ -> ());
  (* lock discipline, at the sequencing point after a Mutex.lock *)
  (let check_lock_continuation k =
     if not (releases k) then
       emit ctx Lint.Lock_discipline e.pexp_loc ("lock:" ^ ctx.item)
         "Mutex.lock is not released on every path of its continuation (use Fun.protect or unlock \
          in every branch)";
     (* scan the continuation while the lock is syntactically held *)
     let rec scan_spine (k : expression) =
       let scan_subtree x =
         ignore
           (expr_contains
              (fun sub ->
                (match blocking_call sub with
                | Some what ->
                    emit ctx Lint.Lock_discipline sub.pexp_loc ("blocking:" ^ ctx.item)
                      (Printf.sprintf "blocking call %s while a mutex is syntactically held" what)
                | None -> ());
                false)
              x)
       in
       match k.pexp_desc with
       | Pexp_sequence (a, b) ->
           if is_unlock a then () else (scan_subtree a; scan_spine b)
       | Pexp_let (_, vbs, body) ->
           List.iter (fun vb -> scan_subtree vb.pvb_expr) vbs;
           scan_spine body
       | _ -> if is_unlock k then () else scan_subtree k
     in
     scan_spine k
   in
   match e.pexp_desc with
   | Pexp_sequence (a, k) when is_lock a -> check_lock_continuation k
   | Pexp_let (_, vbs, body) when List.exists (fun vb -> is_lock vb.pvb_expr) vbs ->
       check_lock_continuation body
   | _ -> ());
  (* mutable-state mutation sites *)
  if ctx.state_scope && not ctx.protected then check_mutation ctx e;
  (* hot-path denylist + queue-growth admission check *)
  if ctx.hot then begin
    (match e.pexp_desc with
    | Pexp_ifthenelse (cond, then_, else_)
      when expr_contains (is_call "Queue.length") cond ->
        ctx.guarded_queues <-
          queue_grow_sites then_
          @ (match else_ with Some el -> queue_grow_sites el | None -> [])
          @ ctx.guarded_queues
    | _ -> ());
    match apply_parts e with
    | Some (p, _) when is_queue_grow p ->
        if not (List.mem e.pexp_loc ctx.guarded_queues) then
          emit ctx Lint.Hot_path e.pexp_loc ("queue:" ^ ctx.item)
            "Queue growth with no depth check in a hot-path module: guard the add with an \
             enclosing [if] on Queue.length (admission control) so overload sheds load instead \
             of growing latency without bound"
    | Some (p, _) -> (
        match hot_denied p with
        | Some msg -> emit ctx Lint.Hot_path e.pexp_loc ("call:" ^ p) msg
        | None -> ())
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Structure walk                                                      *)

let binding_name (vb : value_binding) =
  match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> txt | _ -> "_"

let field_findings ctx (decl : type_declaration) =
  let check_fields prefix fields =
    List.iter
      (fun (ld : label_declaration) ->
        match ld.pld_mutable with
        | Asttypes.Mutable ->
            emit ctx Lint.Mutable_state ld.pld_loc
              (Printf.sprintf "field:%s.%s" prefix ld.pld_name.Asttypes.txt)
              (Printf.sprintf
                 "mutable field %s in a module with no declared protection idiom (Mutex.t, \
                  Atomic.t wrapping, or Domain.DLS confinement)"
                 ld.pld_name.Asttypes.txt)
        | Asttypes.Immutable -> ())
      fields
  in
  let tyname = decl.ptype_name.Asttypes.txt in
  (match decl.ptype_kind with
  | Ptype_record fields -> check_fields tyname fields
  | Ptype_variant ctors ->
      List.iter
        (fun (c : constructor_declaration) ->
          match c.pcd_args with
          | Pcstr_record fields -> check_fields tyname fields
          | Pcstr_tuple _ -> ())
        ctors
  | Ptype_abstract | Ptype_open -> ())

let global_mutable_rhs e =
  match apply_parts (strip_constraint e) with
  | Some (p, _) ->
      p = "ref"
      || path_is "Hashtbl.create" p || path_is "Dyn.create" p || path_is "Dyn.with_capacity" p
      || path_is "Array.make" p || path_is "Array.create_float" p || path_is "Bytes.create" p
      || path_is "Queue.create" p || path_is "Stack.create" p || path_is "Buffer.create" p
  | None -> false

let rec analyze_items ctx items =
  List.iter
    (fun (item : structure_item) ->
      match item.pstr_desc with
      | Pstr_type (_, decls) -> if ctx.state_scope && not ctx.protected then List.iter (field_findings ctx) decls
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              ctx.item <- binding_name vb;
              ctx.locals <- local_creations item;
              if ctx.state_scope && not ctx.protected && global_mutable_rhs vb.pvb_expr then
                emit ctx Lint.Mutable_state vb.pvb_loc
                  ("global:" ^ binding_name vb)
                  "module-level mutable value in a module with no declared protection idiom";
              walk_expr ctx vb.pvb_expr)
            vbs
      | Pstr_eval (e, _) ->
          ctx.item <- "_";
          ctx.locals <- local_creations item;
          walk_expr ctx e
      | Pstr_module mb -> analyze_module ctx mb.pmb_expr
      | Pstr_recmodule mbs -> List.iter (fun mb -> analyze_module ctx mb.pmb_expr) mbs
      | _ -> ())
    items

and analyze_module ctx (m : module_expr) =
  match m.pmod_desc with
  | Pmod_structure items -> analyze_items ctx items
  | Pmod_functor (_, body) -> analyze_module ctx body
  | Pmod_constraint (body, _) -> analyze_module ctx body
  | _ -> ()

and walk_expr ctx e =
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr = (fun self x -> on_expr ctx x; default_iterator.expr self x);
    }
  in
  it.expr it e

(* Module-level protection facts: any mention of Mutex or Domain.DLS in
   the file counts as a declared idiom (the granularity the ISSUE's
   protection contract names: "owned by a module that declares a
   Mutex.t"). *)
let structure_mentions names (str : structure) =
  let found = ref false in
  let check lid = if List.exists (fun c -> List.mem c names) (Longident.flatten lid) then found := true in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self x ->
          (match x.pexp_desc with Pexp_ident { txt; _ } -> check txt | _ -> ());
          default_iterator.expr self x);
      typ =
        (fun self t ->
          (match t.ptyp_desc with Ptyp_constr ({ txt; _ }, _) -> check txt | _ -> ());
          default_iterator.typ self t);
    }
  in
  it.structure it str;
  !found

let analyze ~file ~hot (str : structure) =
  let state_scope = in_state_scope file in
  let protected = structure_mentions [ "Mutex"; "DLS" ] str in
  let ctx =
    { file; state_scope; protected; hot; item = "_"; locals = []; guarded_queues = []; out = [] }
  in
  analyze_items ctx str;
  List.rev ctx.out
