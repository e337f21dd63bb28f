(* Int-specialized execution kernels over int lanes.

   The paper's join-bound methods probe hash tables keyed on single int
   object-id columns; the generic operators pay a [Value.t array] key
   allocation and a polymorphic hash per probe, plus a boxed tuple per
   scanned row.  These kernels run the same plans over the tables' int
   lanes ({!Table.int_lane}) and {!Int_table} multimaps: probing allocates
   nothing, and the fused scan variant never boxes a non-matching outer
   row.

   Equivalence contract: with kernels on or off, every query must produce
   bit-identical results *and* bit-identical work counters (the serve
   fingerprint digests both).  Three rules make that hold:

   - match emission follows the generic bucket order (insertion order —
     {!Int_table}'s chain contract);
   - counters are credited exactly where the generic operators credit
     them: per pulled outer row for the probe side (so [Limit]'s early
     stop sees identical totals), in bulk at open for the build side
     (the generic hash join drains its build fully inside [open_] too);
   - key conversion is exact or abandoned.  Int keys convert trivially;
     integral floats below 2^53 convert exactly in both directions;
     anything else either cannot match an all-int build ([Null], strings,
     fractional floats) or falls back — per probe to a linear scan with
     generic [Value.equal] semantics (huge integral floats, where
     float/int equality is not injective), per build to full generic
     hashing (any non-int build key). *)

module Dyn = Topo_util.Dyn
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
(* Key classification                                                  *)

type key_class = K_int of int | K_none | K_slow

(* 2^53: the last float magnitude where float/int equality is injective.
   At or above it, distinct ints share a float image, so converting the
   float to one int would lose matches the generic path finds. *)
let max_exact_float = 9007199254740992.0

let classify = function
  | Value.Int x -> K_int x
  | Value.Float f ->
      if Float.is_integer f then
        if Float.abs f < max_exact_float then K_int (int_of_float f) else K_slow
      else K_none
  | Value.Null | Value.Str _ -> K_none

(* ------------------------------------------------------------------ *)
(* Selection vectors                                                   *)

let select table pred =
  let keep = Row_filter.compile table pred in
  let rows = Table.rows table in
  let sv = Vec.create ~capacity:(max 16 ((Array.length rows / 4) + 1)) () in
  Array.iteri (fun r row -> if keep r row then Vec.push sv r) rows;
  sv

(* ------------------------------------------------------------------ *)
(* Hash join                                                           *)

type probe_side =
  | Probe_lane of { table : Table.t; lane : int array }
      (* fused SeqScan (no predicate): stream int keys straight off the
         lane, box the outer row only on a match *)
  | Probe_iter of Iterator.t

type build_side =
  | Build_table of { table : Table.t; col : int; pred : Expr.t option }
      (* SeqScan build: the cached per-table int index (no predicate), or
         a selection vector over the row snapshot (predicate) *)
  | Build_iter of { it : Iterator.t; col : int; hint : int }

type build_state =
  | B_int of { tbl : Int_table.t; fetch : int -> Tuple.t }
  | B_gen of Tuple.t Dyn.t Op_join.KeyTbl.t
  | B_empty

let gen_add tbl cols tuple =
  let key = Tuple.key tuple cols in
  match Op_join.KeyTbl.find_opt tbl key with
  | Some bucket -> Dyn.push bucket tuple
  | None ->
      let bucket = Dyn.create () in
      Dyn.push bucket tuple;
      Op_join.KeyTbl.add tbl key bucket

let build_hash build =
  match build with
  | Build_table { table; col; pred } -> (
      let nrows = Table.row_count table in
      Counters.add_scanned nrows;
      match pred with
      | None -> (
          Counters.add_tuples nrows;
          match Table.int_index table col with
          | Some tbl -> B_int { tbl; fetch = Table.get table }
          | None ->
              (* Lane turned out not to be all-int: hash generically. *)
              let g = Op_join.KeyTbl.create (max 16 nrows) in
              Array.iter (gen_add g [| col |]) (Table.rows table);
              B_gen g)
      | Some p -> (
          let sv = select table p in
          Counters.add_tuples (Vec.length sv);
          match Table.int_lane table col with
          | Some lane ->
              let tbl = Int_table.create ~capacity:(max 16 (Vec.length sv)) () in
              Vec.iter (fun r -> Int_table.add tbl lane.(r) r) sv;
              B_int { tbl; fetch = Table.get table }
          | None ->
              let g = Op_join.KeyTbl.create (max 16 (Vec.length sv)) in
              Vec.iter (fun r -> gen_add g [| col |] (Table.get table r)) sv;
              B_gen g))
  | Build_iter { it; col; hint } ->
      let tuples = Dyn.create () in
      let keys = Vec.create ~capacity:(max 16 hint) () in
      let regular = ref true in
      (* Draining through [Iterator.iter] drives the child exactly like the
         generic [drain_into_hash], so build-side counters need no special
         crediting here. *)
      Iterator.iter
        (fun tuple _ ->
          Dyn.push tuples tuple;
          if !regular then
            match classify tuple.(col) with
            | K_int k -> Vec.push keys k
            | K_none | K_slow -> regular := false)
        it;
      let n = Dyn.length tuples in
      if !regular then begin
        let tbl = Int_table.create ~capacity:(max 16 n) () in
        for i = 0 to n - 1 do
          Int_table.add tbl (Vec.get keys i) i
        done;
        B_int { tbl; fetch = Dyn.get tuples }
      end
      else begin
        (* A null, string or out-of-range float key on the build side:
           only generic hashing preserves its match semantics. *)
        let g = Op_join.KeyTbl.create (max 16 n) in
        Dyn.iter (gen_add g [| col |]) tuples;
        B_gen g
      end

let hash_join ~schema ~probe ~probe_col ~build ?residual () =
  let probe_cols = [| probe_col |] in
  let bstate = ref B_empty in
  let pos = ref 0 in
  let n = ref 0 in
  let cur_outer = ref [||] in
  let chain = ref (-1) in
  (* Linear-scan cursor for pathological probe keys (huge integral
     floats): next build entry index to inspect, or -1 when inactive. *)
  let lin = ref (-1) in
  let lin_key = ref Value.Null in
  let gbucket : Tuple.t Dyn.t option ref = ref None in
  let gpos = ref 0 in
  let residual_ok joined =
    match residual with Some p -> Expr.truthy p joined | None -> true
  in
  let fetch_outer () =
    match probe with
    | Probe_iter it -> it.Iterator.next ()
    | Probe_lane { table; _ } ->
        if !pos >= !n then None
        else begin
          let r = !pos in
          incr pos;
          Counters.add_scanned 1;
          Counters.add_tuples 1;
          Some (Table.get table r)
        end
  in
  let rec next () =
    match !bstate with
    | B_empty -> None
    | B_int { tbl; fetch } ->
        if !chain >= 0 then begin
          let e = !chain in
          chain := Int_table.next_entry tbl e;
          let joined = Tuple.concat !cur_outer (fetch (Int_table.payload tbl e)) in
          if residual_ok joined then Some joined else next ()
        end
        else if !lin >= 0 then begin
          let ne = Int_table.length tbl in
          let e = ref !lin in
          while
            !e < ne && not (Value.equal (Value.Int (Int_table.key_at tbl !e)) !lin_key)
          do
            incr e
          done;
          if !e >= ne then begin
            lin := -1;
            next ()
          end
          else begin
            lin := !e + 1;
            let joined = Tuple.concat !cur_outer (fetch (Int_table.payload tbl !e)) in
            if residual_ok joined then Some joined else next ()
          end
        end
        else advance_int tbl
    | B_gen g -> (
        match !gbucket with
        | Some b when !gpos < Dyn.length b ->
            let inner = Dyn.get b !gpos in
            incr gpos;
            let joined = Tuple.concat !cur_outer inner in
            if residual_ok joined then Some joined else next ()
        | _ -> (
            gbucket := None;
            match fetch_outer () with
            | None -> None
            | Some outer ->
                cur_outer := outer;
                (match Op_join.KeyTbl.find_opt g (Tuple.key outer probe_cols) with
                | Some b ->
                    gbucket := Some b;
                    gpos := 0
                | None -> ());
                next ()))
  and advance_int tbl =
    match probe with
    | Probe_lane { table; lane } ->
        (* The fused fast path: never boxes a non-matching row. *)
        let rec scan () =
          if !pos >= !n then None
          else begin
            let r = !pos in
            incr pos;
            Counters.add_scanned 1;
            Counters.add_tuples 1;
            let e = Int_table.first tbl (Array.unsafe_get lane r) in
            if e >= 0 then begin
              cur_outer := Table.get table r;
              chain := e;
              next ()
            end
            else scan ()
          end
        in
        scan ()
    | Probe_iter it -> (
        match it.Iterator.next () with
        | None -> None
        | Some outer -> (
            cur_outer := outer;
            match classify outer.(probe_col) with
            | K_int k ->
                let e = Int_table.first tbl k in
                if e >= 0 then begin
                  chain := e;
                  next ()
                end
                else advance_int tbl
            | K_none -> advance_int tbl
            | K_slow ->
                lin := 0;
                lin_key := outer.(probe_col);
                next ()))
  in
  Iterator.ungrouped ~schema
    ~open_:(fun () ->
      chain := -1;
      lin := -1;
      gbucket := None;
      gpos := 0;
      pos := 0;
      (* Build first, then open the probe side — the generic hash join's
         order. *)
      bstate := build_hash build;
      match probe with
      | Probe_lane { lane; _ } -> n := Array.length lane
      | Probe_iter it -> it.Iterator.open_ ())
    ~next
    ~close:(fun () ->
      match probe with Probe_iter it -> it.Iterator.close () | Probe_lane _ -> ())

(* ------------------------------------------------------------------ *)
(* Index nested-loop join                                              *)

let index_nl_join_int ~schema ~left ~table ~itbl ~left_col ?pred ?residual () =
  let keep = Option.map (Row_filter.compile table) pred in
  let cur_outer = ref [||] in
  let chain = ref (-1) in
  let lin = ref (-1) in
  let lin_key = ref Value.Null in
  let rec next () =
    if !chain >= 0 then begin
      let e = !chain in
      chain := Int_table.next_entry itbl e;
      step (Int_table.payload itbl e)
    end
    else if !lin >= 0 then begin
      let ne = Int_table.length itbl in
      let e = ref !lin in
      while !e < ne && not (Value.equal (Value.Int (Int_table.key_at itbl !e)) !lin_key) do
        incr e
      done;
      if !e >= ne then begin
        lin := -1;
        next ()
      end
      else begin
        lin := !e + 1;
        step (Int_table.payload itbl !e)
      end
    end
    else
      match left.Iterator.next () with
      | None -> None
      | Some outer ->
          Counters.add_probes 1;
          cur_outer := outer;
          (match classify outer.(left_col) with
          | K_int k -> chain := Int_table.first itbl k
          | K_none -> ()
          | K_slow ->
              lin := 0;
              lin_key := outer.(left_col));
          next ()
  and step rowno =
    let inner = Table.get table rowno in
    match keep with
    | Some f when not (f rowno inner) -> next ()
    | Some _ | None -> (
        let joined = Tuple.concat !cur_outer inner in
        match residual with
        | Some r when not (Expr.truthy r joined) -> next ()
        | Some _ | None -> Some joined)
  in
  Iterator.ungrouped ~schema
    ~open_:(fun () ->
      chain := -1;
      lin := -1;
      left.Iterator.open_ ())
    ~next
    ~close:(fun () -> left.Iterator.close ())

(* ------------------------------------------------------------------ *)
(* DGJ bucket prober                                                   *)

(* Drop-in for [Index.probe_bucket] over an int index: same [(count, get)]
   shape, same row order.  [get] keeps a chain cursor, so the IDGJ's
   strictly sequential access is O(1) per step (random access restarts the
   walk — correct, just slower, and nothing uses it). *)
let int_bucket_prober itbl v =
  match classify v with
  | K_int k ->
      let cnt = Int_table.count itbl k in
      if cnt = 0 then (0, fun _ -> 0)
      else begin
        let cur = ref (Int_table.first itbl k) in
        let curi = ref 0 in
        ( cnt,
          fun i ->
            if i < !curi then begin
              cur := Int_table.first itbl k;
              curi := 0
            end;
            while !curi < i do
              cur := Int_table.next_entry itbl !cur;
              incr curi
            done;
            Int_table.payload itbl !cur )
      end
  | K_none -> (0, fun _ -> 0)
  | K_slow ->
      let sv = Vec.create () in
      Int_table.iter_entries (fun k p -> if Value.equal (Value.Int k) v then Vec.push sv p) itbl;
      (Vec.length sv, Vec.get sv)
