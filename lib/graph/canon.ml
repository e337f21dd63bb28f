(* Canonical labeling by refinement + individualization.

   Nodes are first mapped to dense indices 0..n-1.  A "coloring" is an array
   of integers; refinement replaces each node's color with a rank of
   (color, sorted list of (edge label, neighbor color)) until stable.  If
   the coloring is discrete (all colors distinct) it induces a canonical
   order directly.  Otherwise we branch: take the first non-singleton color
   class (in color order), individualize each member in turn, refine and
   recurse; the smallest resulting serialization wins. *)

type dense = {
  n : int;
  ids : int array;  (* dense index -> original id *)
  labels : int array;
  adj : (int * int) list array;  (* dense: (edge label, dense neighbor) *)
}

let densify g =
  let ids = Array.of_list (Lgraph.nodes g) in
  let n = Array.length ids in
  let index = Hashtbl.create n in
  Array.iteri (fun i id -> Hashtbl.add index id i) ids;
  let labels = Array.map (fun id -> Lgraph.node_label g id) ids in
  let adj =
    Array.map
      (fun id -> List.map (fun (el, other) -> (el, Hashtbl.find index other)) (Lgraph.neighbors g id))
      ids
  in
  { n; ids; labels; adj }

(* Rank distinct keys to small ints, preserving key order so refinement is
   deterministic. *)
let rank_colors keys =
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  let tbl = Hashtbl.create (Array.length keys) in
  let next = ref 0 in
  Array.iter
    (fun k ->
      if not (Hashtbl.mem tbl k) then begin
        Hashtbl.add tbl k !next;
        incr next
      end)
    sorted;
  (Array.map (fun k -> Hashtbl.find tbl k) keys, !next)

let refine dense colors =
  let colors = ref colors in
  let ncolors = ref 0 in
  let stable = ref false in
  while not !stable do
    let keys =
      Array.init dense.n (fun i ->
          let sig_ = List.sort compare (List.map (fun (el, j) -> (el, !colors.(j))) dense.adj.(i)) in
          (!colors.(i), sig_))
    in
    let next, count = rank_colors keys in
    if count = !ncolors && next = !colors then stable := true
    else begin
      colors := next;
      ncolors := count
    end
  done;
  !colors

let initial_colors dense =
  let keys = Array.init dense.n (fun i -> (dense.labels.(i), List.length dense.adj.(i))) in
  fst (rank_colors keys)

let is_discrete colors =
  let n = Array.length colors in
  let seen = Array.make n false in
  Array.for_all
    (fun c ->
      if c >= n || seen.(c) then false
      else begin
        seen.(c) <- true;
        true
      end)
    colors

(* Serialize the graph under the order induced by a discrete coloring. *)
let serialize dense colors =
  let n = dense.n in
  let position = Array.make n 0 in
  (* colors are 0..n-1 distinct: color = canonical position. *)
  Array.iteri (fun i c -> position.(i) <- c) colors;
  let buf = Buffer.create 64 in
  let by_pos = Array.make n 0 in
  Array.iteri (fun i c -> by_pos.(c) <- i) colors;
  Array.iter (fun i -> Buffer.add_string buf (Printf.sprintf "n%d;" dense.labels.(i))) by_pos;
  let edges = ref [] in
  Array.iteri
    (fun i nbrs ->
      List.iter
        (fun (el, j) ->
          if position.(i) < position.(j) then edges := (position.(i), position.(j), el) :: !edges)
        nbrs)
    dense.adj;
  let edges = List.sort compare !edges in
  List.iter (fun (a, b, el) -> Buffer.add_string buf (Printf.sprintf "e%d,%d,%d;" a b el)) edges;
  Buffer.contents buf

let rec canonical_serialization dense colors =
  let colors = refine dense colors in
  if is_discrete colors then (serialize dense colors, colors)
  else begin
    (* First non-singleton color class in color order. *)
    let n = dense.n in
    let count = Array.make n 0 in
    Array.iter (fun c -> count.(c) <- count.(c) + 1) colors;
    let target =
      let rec find c = if count.(c) >= 2 then c else find (c + 1) in
      find 0
    in
    let best = ref None in
    Array.iteri
      (fun i c ->
        if c = target then begin
          (* Individualize node i: give it a color just below its class. *)
          let branched =
            Array.mapi (fun j cj -> if j = i then cj * 2 else (cj * 2) + 1) colors
          in
          let ranked, _ = rank_colors branched in
          let ser, final = canonical_serialization dense ranked in
          match !best with
          | Some (bs, _) when bs <= ser -> ()
          | Some _ | None -> best := Some (ser, final)
        end)
      colors;
    match !best with
    | Some result -> result
    | None -> failwith "Canon.canonical_serialization: target color class vanished during refinement"
  end

let key_and_order g =
  let dense = densify g in
  if dense.n = 0 then ("", [])
  else begin
    let ser, colors = canonical_serialization dense (initial_colors dense) in
    let by_pos = Array.make dense.n 0 in
    Array.iteri (fun i c -> by_pos.(c) <- i) colors;
    (ser, Array.to_list (Array.map (fun i -> dense.ids.(i)) by_pos))
  end

let key g = fst (key_and_order g)

let canonical_order g = snd (key_and_order g)
