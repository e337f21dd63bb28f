(* Row-number join pipelines over int lanes.

   The paper's top-k methods join precomputed topology tables on single
   int object-id columns.  Run as a Volcano tree, every join level pays a
   [Tuple.concat] of boxed rows, an [option] and a closure call per
   intermediate tuple.  A pipeline runs a whole left-deep chain of such
   joins as one iterator instead: it keeps one current row number per
   relation, reads join keys from {!Table.int_lane}s, walks {!Int_table}
   chains, and builds a tuple only when the chain's root emits — and then
   only the projected columns when a [Project] sits directly above.

   Equivalence contract: with kernels on or off, every query produces
   bit-identical results, group ids and work counters (the serve
   fingerprint digests results and counters).  Three rules make that
   hold:

   - match order is the generic operators' bucket order: {!Int_table}
     chains enumerate in insertion order, which is row order for both the
     cached {!Table.int_index} and a predicated build;
   - every level credits {!Iterator.Counters} for exactly the events the
     generic operator credits: a scan leaf one scanned row per row read
     and one tuple per row that passes its predicate, a probe step one
     probe per outer row and one tuple per inner row that passes, a hash
     build in bulk at [open_].  The increments are batched per [next]
     call, so the totals agree at every point a caller can observe,
     including a [Limit] that stops early;
   - a key column is read from an int lane or not at all: a chain whose
     key column holds a non-int cell is cut below that step (see
     {!pipeline}), so int equality is exactly [Value.equal]. *)

module Counters = Iterator.Counters
module Vec = Int_table.Vec

(* ------------------------------------------------------------------ *)
(* Ambient toggle                                                      *)

let enabled = Atomic.make true

let kernels_on () = Atomic.get enabled

let with_kernels b f =
  let prev = Atomic.exchange enabled b in
  Fun.protect ~finally:(fun () -> Atomic.set enabled prev) f

(* ------------------------------------------------------------------ *)
(* Selection vectors                                                   *)

let select table pred =
  let keep = Row_filter.compile table pred in
  let rows = Table.rows table in
  let sv = Vec.create ~capacity:(max 16 ((Array.length rows / 4) + 1)) () in
  Array.iteri (fun r row -> if keep r row then Vec.push sv r) rows;
  sv

(* ------------------------------------------------------------------ *)
(* Pipelines                                                           *)

type leaf = { table : Table.t; order : int array option; pred : Expr.t option; grouped : bool }

type join = Index_nl | Idgj | Hash_join

type step = { join : join; table : Table.t; col : int; pred : Expr.t option; outer_pos : int }

(* Relation [rel] and column of position [pos] in the concatenation of
   [arities]' first [upto] relations. *)
let locate arities ~upto pos =
  let rec go rel off =
    if rel >= upto || pos < off then invalid_arg "Op_kernel.pipeline: position out of range"
    else if pos < off + arities.(rel) then (rel, pos - off)
    else go (rel + 1) (off + arities.(rel))
  in
  if pos < 0 then invalid_arg "Op_kernel.pipeline: position out of range" else go 0 0

let pipeline ~schema (leaf : leaf) (steps : step array) ~project =
  let nsteps = Array.length steps in
  let nrel = nsteps + 1 in
  (* Relation 0 is the leaf; relation [lv] is step [lv - 1]'s inner table. *)
  let tables = Array.init nrel (fun lv -> if lv = 0 then leaf.table else steps.(lv - 1).table) in
  let arities = Array.map (fun t -> Schema.arity (Table.schema t)) tables in
  let keys = Array.mapi (fun i s -> locate arities ~upto:(i + 1) s.outer_pos) steps in
  let outer_lanes = Array.map (fun (rel, c) -> Table.int_lane tables.(rel) c) keys in
  let inner_ok = Array.for_all (fun s -> Option.is_some (Table.int_lane s.table s.col)) steps in
  if (not inner_ok) || Array.exists Option.is_none outer_lanes then None
  else begin
    let seq = Option.is_none leaf.order in
    let order = Option.value leaf.order ~default:[||] in
    let leaf_keep = Option.map (Row_filter.compile leaf.table) leaf.pred in
    (* Per level (index 0 unused): the key lane and the relation whose
       current row indexes it, the inner filter, the chain table, and
       whether the level is a probe (IndexNL/IDGJ) or an IDGJ. *)
    let key_rel = Array.init nrel (fun lv -> if lv = 0 then 0 else fst keys.(lv - 1)) in
    let key_lane =
      Array.init nrel (fun lv -> if lv = 0 then [||] else Option.get outer_lanes.(lv - 1))
    in
    let join_of lv = steps.(lv - 1).join in
    let probe = Array.init nrel (fun lv -> lv > 0 && join_of lv <> Hash_join) in
    let idgj = Array.init nrel (fun lv -> lv > 0 && join_of lv = Idgj) in
    (* A hash build hashes only the rows its scan predicate keeps, so the
       probe loop filters nothing there. *)
    let filter =
      Array.init nrel (fun lv ->
          if lv = 0 || not probe.(lv) then None
          else Option.map (Row_filter.compile tables.(lv)) steps.(lv - 1).pred)
    in
    (* Step [lv - 1]'s chains: the inner table's cached int index, or for
       a predicated hash build a table filled at [open_]. *)
    let chains =
      Array.map
        (fun s ->
          match (s.join, s.pred) with
          | Hash_join, Some _ -> Int_table.create ~capacity:0 ()
          | (Index_nl | Idgj | Hash_join), _ -> Option.get (Table.int_index s.table s.col))
        steps
    in
    (* Output cells: (relation, column) per emitted position. *)
    let out =
      let offsets = Array.make nrel 0 in
      for lv = 1 to nsteps do
        offsets.(lv) <- offsets.(lv - 1) + arities.(lv - 1)
      done;
      let width = offsets.(nsteps) + arities.(nsteps) in
      let positions =
        match project with Some cols -> Array.of_list cols | None -> Array.init width Fun.id
      in
      Array.map (fun pos -> locate arities ~upto:nrel pos) positions
    in
    let out_rel = Array.map fst out and out_col = Array.map snd out in
    let width = Array.length out in
    let cur = Array.make nrel 0 in
    let ent = Array.make nrel (-1) in
    let grp = Array.make nrel (-1) in
    let pos = ref 0 and n = ref 0 and leaf_grp = ref (-1) in
    let tuples = ref 0 and probes = ref 0 and scanned = ref 0 in
    let rec pull_leaf () =
      if !pos >= !n then false
      else begin
        let r = if seq then !pos else Array.unsafe_get order !pos in
        incr pos;
        if seq then incr scanned;
        match leaf_keep with
        | Some f when not (f r (Table.get leaf.table r)) -> pull_leaf ()
        | Some _ | None ->
            cur.(0) <- r;
            incr tuples;
            incr leaf_grp;
            true
      end
    in
    (* The group id level [lv] reports: an IDGJ samples its outer's when
       it pulls an outer row; every other join reports 0. *)
    let group_of lv =
      if lv = 0 then if leaf.grouped then !leaf_grp else 0 else if idgj.(lv) then grp.(lv) else 0
    in
    (* Next row of level [lv] from chain entry [e] on: the rest of the
       current outer row's chain, then the outer's next rows' chains. *)
    let rec walk lv e =
      if e < 0 then
        if pull (lv - 1) then begin
          if probe.(lv) then incr probes;
          if idgj.(lv) then grp.(lv) <- group_of (lv - 1);
          walk lv (Int_table.first chains.(lv - 1) key_lane.(lv).(cur.(key_rel.(lv))))
        end
        else begin
          ent.(lv) <- -1;
          false
        end
      else begin
        let chain = chains.(lv - 1) in
        let r = Int_table.payload chain e in
        let e' = Int_table.next_entry chain e in
        match filter.(lv) with
        | Some f when not (f r (Table.get tables.(lv) r)) -> walk lv e'
        | Some _ | None ->
            ent.(lv) <- e';
            cur.(lv) <- r;
            incr tuples;
            true
      end
    and pull lv = if lv = 0 then pull_leaf () else walk lv ent.(lv) in
    let flush () =
      Counters.add_work ~tuples:!tuples ~probes:!probes ~scanned:!scanned;
      tuples := 0;
      probes := 0;
      scanned := 0
    in
    let emit () =
      let t = Array.make width Value.Null in
      for i = 0 to width - 1 do
        let rel = out_rel.(i) in
        t.(i) <- (Table.get tables.(rel) cur.(rel)).(out_col.(i))
      done;
      t
    in
    (* A hash build drains its scan at [open_], like the generic hash
       join: one scanned row per table row, one tuple per kept row. *)
    let build lv =
      let s = steps.(lv - 1) in
      let nrows = Table.row_count s.table in
      match s.pred with
      | None -> Counters.add_work ~tuples:nrows ~probes:0 ~scanned:nrows
      | Some p ->
          let lane = Option.get (Table.int_lane s.table s.col) in
          let kept = select s.table p in
          let chain = Int_table.create ~capacity:(max 16 (Vec.length kept)) () in
          Vec.iter (fun r -> Int_table.add chain lane.(r) r) kept;
          chains.(lv - 1) <- chain;
          Counters.add_work ~tuples:(Vec.length kept) ~probes:0 ~scanned:nrows
    in
    (* Abandoning a group reaches down through the IDGJs above the first
       other join, as each IDGJ's [advance_group] calls its outer's. *)
    let rec advance lv =
      if lv > 0 && idgj.(lv) then begin
        ent.(lv) <- -1;
        advance (lv - 1)
      end
    in
    Some
      {
        Iterator.schema;
        open_ =
          (fun () ->
            Array.fill ent 0 nrel (-1);
            Array.fill grp 0 nrel (-1);
            leaf_grp := -1;
            pos := 0;
            n := if seq then Table.row_count leaf.table else Array.length order;
            for lv = 1 to nsteps do
              if not probe.(lv) then build lv
            done);
        next =
          (fun () ->
            let found = pull nsteps in
            flush ();
            if found then Some (emit ()) else None);
        close = (fun () -> ());
        advance_group = (fun () -> advance nsteps);
        last_group = (fun () -> group_of nsteps);
      }
  end
