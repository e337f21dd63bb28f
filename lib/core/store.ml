open Topo_sql

type t = {
  t1 : string;
  t2 : string;
  alltops : string;
  lefttops : string;
  excptops : string;
  topinfo : string;
  pruned : int list;
  derivations : (int, string list list) Hashtbl.t;
  frequencies : (int, int) Hashtbl.t;
  cards : (string * Ranking.scheme * int array) list;
}

let table_names ~t1 ~t2 =
  let suffix = Printf.sprintf "_%s_%s" t1 t2 in
  ("AllTops" ^ suffix, "LeftTops" ^ suffix, "ExcpTops" ^ suffix, "TopInfo" ^ suffix)

let pair_schema =
  lazy
    (Schema.make
       [
         { Schema.name = "E1"; ty = Schema.TInt };
         { Schema.name = "E2"; ty = Schema.TInt };
         { Schema.name = "TID"; ty = Schema.TInt };
       ])

let topinfo_schema =
  lazy
    (Schema.make
       [
         { Schema.name = "TID"; ty = Schema.TInt };
         { Schema.name = "freq"; ty = Schema.TInt };
         { Schema.name = "nnodes"; ty = Schema.TInt };
         { Schema.name = "nedges"; ty = Schema.TInt };
         { Schema.name = "simple"; ty = Schema.TInt };
         { Schema.name = "score_freq"; ty = Schema.TFloat };
         { Schema.name = "score_rare"; ty = Schema.TFloat };
         { Schema.name = "score_domain"; ty = Schema.TFloat };
         { Schema.name = "detail"; ty = Schema.TStr };
       ])

let fresh_table catalog name schema ~primary_key =
  Catalog.remove catalog name;
  Catalog.create_table catalog ~name ~schema ?primary_key ()

(* Card_i of each (fact table, scheme) the top-k methods price.  The
   score order comes from private sorted indexes over TopInfo and the
   counts from one pass over each fact table: the build must declare no
   index that its snapshot would then carry. *)
let derive_cards catalog ~t1 ~t2 =
  let alltops, lefttops, _, topinfo = table_names ~t1 ~t2 in
  let group = Catalog.find catalog topinfo in
  (* A private copy: [Table.rows] would fill the table's shared row cache. *)
  let group_rows = Array.init (Table.row_count group) (Table.get group) in
  let by_score scheme =
    let col = Schema.index_of (Table.schema group) (Ranking.score_column scheme) in
    (scheme, Index.ordered_rows ~desc:true (Index.build ~kind:Index.Sorted ~cols:[| col |] group_rows))
  in
  let orders = List.map by_score Ranking.all in
  List.concat_map
    (fun fact ->
      let table = Catalog.find catalog fact in
      let tid = Schema.index_of (Table.schema table) "TID" in
      let counts = Hashtbl.create 256 in
      Table.iter
        (fun _ tuple ->
          let key = tuple.(tid) in
          Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
        table;
      let count key = Option.value ~default:0 (Hashtbl.find_opt counts key) in
      List.map
        (fun (scheme, order) ->
          let spec =
            {
              Optimizer.group_table = topinfo;
              group_key = "TID";
              score_col = Ranking.score_column scheme;
              group_pred = None;
              fact_table = fact;
              fact_group_col = "TID";
              dims = [];
              k = 0;
              group_cards = None;
            }
          in
          (fact, scheme, Optimizer.group_cards_of catalog spec ~order ~count))
        orders)
    [ alltops; lefttops ]

let cards store ~fact scheme =
  List.find_map (fun (f, s, cards) -> if f = fact && s = scheme then Some cards else None) store.cards

let make catalog ~t1 ~t2 ~pruned ~derivations ~frequencies =
  let alltops, lefttops, excptops, topinfo = table_names ~t1 ~t2 in
  let cards = derive_cards catalog ~t1 ~t2 in
  { t1; t2; alltops; lefttops; excptops; topinfo; pruned; derivations; frequencies; cards }

let decompositions store tid = Option.value ~default:[] (Hashtbl.find_opt store.derivations tid)

let build catalog interner registry ~rows ~t1 ~t2 ~pruning_threshold =
  let alltops_n, lefttops_n, excptops_n, topinfo_n = table_names ~t1 ~t2 in
  (* Frequencies: number of pairs related by each topology.  Derivations:
     each row's (sorted) class keys, once per topology, in row order. *)
  let frequencies = Hashtbl.create 256 and derivations = Hashtbl.create 256 in
  List.iter
    (fun (r : Compute.pair_row) ->
      List.iter
        (fun tid ->
          Hashtbl.replace frequencies tid (1 + Option.value ~default:0 (Hashtbl.find_opt frequencies tid));
          let ds = Option.value ~default:[] (Hashtbl.find_opt derivations tid) in
          if not (List.mem r.Compute.class_keys ds) then
            Hashtbl.replace derivations tid (ds @ [ r.Compute.class_keys ]))
        r.Compute.tids)
    rows;
  let pruned =
    (* Only single-path topologies are pruned: the premise of Section 4.2.2
       is that pruned topologies "have a relatively simple structure" so
       their existence "can be checked easily during query processing".
       Pruning a complex topology would both make the online check a
       multi-way join and balloon ExcpTops (its condition is satisfied by
       many pairs). *)
    Hashtbl.fold
      (fun tid freq acc ->
        if freq > pruning_threshold && Topology.is_single_path (Topology.find registry tid) then
          (tid, freq) :: acc
        else acc)
      frequencies []
    |> List.sort (fun (_, fa) (_, fb) -> Int.compare fb fa)
    |> List.map fst
  in
  (* Hash sets replace the List.mem scans of the hot loops below (TID
     lists and class-key lists are short, but rows x tids x pruned
     multiplies); insertion order — and so the resulting tables — is
     bit-identical to the naive scans. *)
  let pruned_tid_set = Hashtbl.create 16 in
  List.iter (fun tid -> Hashtbl.replace pruned_tid_set tid ()) pruned;
  (* AllTops / LeftTops. *)
  let alltops = fresh_table catalog alltops_n (Lazy.force pair_schema) ~primary_key:None in
  let lefttops = fresh_table catalog lefttops_n (Lazy.force pair_schema) ~primary_key:None in
  List.iter
    (fun (r : Compute.pair_row) ->
      List.iter
        (fun tid ->
          let row = [ Value.Int r.Compute.a; Value.Int r.Compute.b; Value.Int tid ] in
          Table.insert_values alltops row;
          if not (Hashtbl.mem pruned_tid_set tid) then Table.insert_values lefttops row)
        r.Compute.tids)
    rows;
  (* ExcpTops: pairs satisfying a pruned topology's path condition whose
     actual topology set omits it.  Each row's class-key and TID sets are
     materialized once, outside the per-pruned-topology sweep. *)
  let excptops = fresh_table catalog excptops_n (Lazy.force pair_schema) ~primary_key:None in
  let row_sets =
    List.map
      (fun (r : Compute.pair_row) ->
        let keys = Hashtbl.create 8 in
        List.iter (fun key -> Hashtbl.replace keys key ()) r.Compute.class_keys;
        let tids = Hashtbl.create 8 in
        List.iter (fun tid -> Hashtbl.replace tids tid ()) r.Compute.tids;
        (r, keys, tids))
      rows
  in
  List.iter
    (fun p ->
      let decompositions = Hashtbl.find derivations p in
      List.iter
        (fun ((r : Compute.pair_row), keys, tids) ->
          let satisfies_condition =
            List.exists
              (fun decomposition -> List.for_all (fun key -> Hashtbl.mem keys key) decomposition)
              decompositions
          in
          if satisfies_condition && not (Hashtbl.mem tids p) then
            Table.insert_values excptops [ Value.Int r.Compute.a; Value.Int r.Compute.b; Value.Int p ])
        row_sets)
    pruned;
  (* TopInfo with all three ranking scores. *)
  let topinfo = fresh_table catalog topinfo_n (Lazy.force topinfo_schema) ~primary_key:(Some "TID") in
  let tids = Hashtbl.fold (fun tid _ acc -> tid :: acc) frequencies [] |> List.sort compare in
  List.iter
    (fun tid ->
      let info = Topology.find registry tid in
      let freq = Hashtbl.find frequencies tid in
      let score scheme = Ranking.score scheme interner info ~freq in
      Table.insert_values topinfo
        [
          Value.Int tid;
          Value.Int freq;
          Value.Int info.Topology.n_nodes;
          Value.Int info.Topology.n_edges;
          Value.Int (if Topology.is_single_path info then 1 else 0);
          Value.Float (score Ranking.Freq);
          Value.Float (score Ranking.Rare);
          Value.Float (score Ranking.Domain);
          Value.Str (Topology.describe interner info);
        ])
    tids;
  make catalog ~t1 ~t2 ~pruned ~derivations ~frequencies

(* Frequencies are TopInfo's freq column, which [build] wrote from the
   same map and [Engine.fingerprint] digests.  A derivation's keys name
   schema paths of the one pair that produced it, so the registry's
   derivations over [class_keys] are the ones [build] recorded. *)
let restore catalog registry ~class_keys ~t1 ~t2 ~pruned =
  let own = Hashtbl.create 32 in
  List.iter (fun key -> Hashtbl.replace own key ()) class_keys;
  let _, _, _, topinfo_n = table_names ~t1 ~t2 in
  let topinfo = Catalog.find catalog topinfo_n in
  let col = Schema.index_of (Table.schema topinfo) in
  let tid_col = col "TID" and freq = col "freq" in
  let frequencies = Hashtbl.create (max 16 (Table.row_count topinfo)) in
  let derivations = Hashtbl.create (max 16 (Table.row_count topinfo)) in
  Table.iter
    (fun _ tuple ->
      let tid = Value.as_int tuple.(tid_col) in
      Hashtbl.replace frequencies tid (Value.as_int tuple.(freq));
      let ds =
        match Topology.find registry tid with
        | t -> List.filter (List.for_all (Hashtbl.mem own)) t.Topology.decompositions
        | exception Not_found -> []
      in
      if ds = [] then
        invalid_arg (Printf.sprintf "store %s-%s: TID %d has no derivation of its own" t1 t2 tid);
      Hashtbl.replace derivations tid ds)
    topinfo;
  match List.find_opt (fun tid -> not (Hashtbl.mem derivations tid)) pruned with
  | Some tid -> invalid_arg (Printf.sprintf "store %s-%s: pruned TID %d is not in its TopInfo" t1 t2 tid)
  | None -> make catalog ~t1 ~t2 ~pruned ~derivations ~frequencies

let frequency store tid = Option.value ~default:0 (Hashtbl.find_opt store.frequencies tid)

let score_of store catalog scheme tid =
  let table = Catalog.find catalog store.topinfo in
  match Table.find_by_pk table (Value.Int tid) with
  | None -> raise Not_found
  | Some tuple ->
      let pos = Schema.index_of (Table.schema table) (Ranking.score_column scheme) in
      Value.as_float tuple.(pos)

let is_excepted store catalog ~a ~b ~tid =
  let table = Catalog.find catalog store.excptops in
  let idx = Table.ensure_index table ~kind:Index.Hash ~cols:[ "E1"; "E2"; "TID" ] in
  Index.probe_count idx [| Value.Int a; Value.Int b; Value.Int tid |] > 0

let space store catalog =
  let size name = Table.byte_size (Catalog.find catalog name) in
  (size store.alltops, size store.lefttops, size store.excptops)
