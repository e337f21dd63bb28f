module Key = struct
  type t = Value.t array

  let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

  let hash k = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 19 k

  let compare a b =
    let rec loop i =
      if i >= Array.length a then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    if Array.length a <> Array.length b then Int.compare (Array.length a) (Array.length b) else loop 0
end

module KeyTbl = Hashtbl.Make (Key)

type kind = Hash | Sorted

type t = {
  kind : kind;
  cols : int array;
  hash : int Topo_util.Dyn.t KeyTbl.t;
  (* For Sorted: entries ordered by key then row number. *)
  sorted : (Key.t * int) array;
}

let build ~kind ~cols rows =
  let hash = KeyTbl.create (Array.length rows) in
  Array.iteri
    (fun rowno tuple ->
      let key = Tuple.key tuple cols in
      match KeyTbl.find_opt hash key with
      | Some bucket -> Topo_util.Dyn.push bucket rowno
      | None ->
          let bucket = Topo_util.Dyn.create () in
          Topo_util.Dyn.push bucket rowno;
          KeyTbl.add hash key bucket)
    rows;
  let sorted =
    match kind with
    | Hash -> [||]
    | Sorted ->
        let entries = Array.mapi (fun rowno tuple -> (Tuple.key tuple cols, rowno)) rows in
        Array.sort
          (fun (ka, ra) (kb, rb) ->
            let c = Key.compare ka kb in
            if c <> 0 then c else Int.compare ra rb)
          entries;
        entries
  in
  { kind; cols; hash; sorted }

let kind t = t.kind

let probe t key =
  match KeyTbl.find_opt t.hash key with
  | Some bucket -> Topo_util.Dyn.to_list bucket
  | None -> []

let probe_count t key =
  match KeyTbl.find_opt t.hash key with
  | Some bucket -> Topo_util.Dyn.length bucket
  | None -> 0

let ordered_rows ?(desc = false) t =
  match t.kind with
  | Hash -> invalid_arg "Index.ordered_rows: hash index has no order"
  | Sorted ->
      let n = Array.length t.sorted in
      if desc then Array.init n (fun i -> snd t.sorted.(n - 1 - i))
      else Array.map snd t.sorted

let distinct_keys t = KeyTbl.length t.hash

let probe_bucket t key =
  match KeyTbl.find_opt t.hash key with
  | Some bucket -> (Topo_util.Dyn.length bucket, Topo_util.Dyn.get bucket)
  | None -> (0, fun _ -> invalid_arg "Index.probe_bucket: empty bucket")
