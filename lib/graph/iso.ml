let embeds ~pattern ~host ?(anchors = []) () =
  let pnodes = Array.of_list (Lgraph.nodes pattern) in
  let n = Array.length pnodes in
  (* Order pattern nodes: anchored first, then by descending degree so the
     search fails fast. *)
  let anchored p = List.mem_assoc p anchors in
  Array.sort
    (fun a b ->
      match (anchored a, anchored b) with
      | true, false -> -1
      | false, true -> 1
      | true, true | false, false -> Int.compare (Lgraph.degree pattern b) (Lgraph.degree pattern a))
    pnodes;
  let mapping = Hashtbl.create n in
  (* pattern -> host *)
  let used = Hashtbl.create n in
  (* host nodes already used *)
  let compatible p h =
    Lgraph.node_label pattern p = Lgraph.node_label host h
    && (not (Hashtbl.mem used h))
    && List.for_all
         (fun (el, pnbr) ->
           match Hashtbl.find_opt mapping pnbr with
           | None -> true
           | Some hnbr -> Lgraph.mem_edge host ~u:h ~v:hnbr ~label:el)
         (Lgraph.neighbors pattern p)
  in
  let candidates p =
    match List.assoc_opt p anchors with
    | Some h -> [ h ]
    | None -> (
        (* Prefer extending along an already-mapped neighbor. *)
        let mapped_nbr =
          List.find_map
            (fun (el, pnbr) ->
              match Hashtbl.find_opt mapping pnbr with
              | Some hnbr -> Some (el, hnbr)
              | None -> None)
            (Lgraph.neighbors pattern p)
        in
        match mapped_nbr with
        | Some (el, hnbr) ->
            List.filter_map
              (fun (el', h) -> if el' = el then Some h else None)
              (Lgraph.neighbors host hnbr)
        | None -> Lgraph.nodes host)
  in
  let rec solve i =
    if i >= n then true
    else begin
      let p = pnodes.(i) in
      let rec try_candidates = function
        | [] -> false
        | h :: rest ->
            if compatible p h then begin
              Hashtbl.add mapping p h;
              Hashtbl.add used h ();
              if solve (i + 1) then true
              else begin
                Hashtbl.remove mapping p;
                Hashtbl.remove used h;
                try_candidates rest
              end
            end
            else try_candidates rest
      in
      try_candidates (candidates p)
    end
  in
  (* Reject anchor pairs that are themselves invalid. *)
  let anchors_ok =
    List.for_all
      (fun (p, h) -> Lgraph.mem_node pattern p && Lgraph.mem_node host h)
      anchors
  in
  anchors_ok && solve 0
