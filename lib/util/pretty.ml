type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let normalize ncols row =
  let len = List.length row in
  if len = ncols then row
  else if len < ncols then row @ List.init (ncols - len) (fun _ -> "")
  else List.filteri (fun i _ -> i < ncols) row

let render ~header ?aligns rows =
  let ncols = List.length header in
  let rows = List.map (normalize ncols) rows in
  let aligns =
    match aligns with
    | Some a when List.length a = ncols -> a
    | Some _ | None -> List.init ncols (fun _ -> Left)
  in
  let widths = Array.of_list (List.map String.length header) in
  let note_row row = List.iteri (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell) row in
  List.iter note_row rows;
  let buf = Buffer.create 1024 in
  let rstrip s =
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do
      decr n
    done;
    String.sub s 0 !n
  in
  let emit_row row =
    let line = Buffer.create 80 in
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string line "  ";
        Buffer.add_string line (pad (List.nth aligns i) widths.(i) cell))
      row;
    Buffer.add_string buf (rstrip (Buffer.contents line));
    Buffer.add_char buf '\n'
  in
  emit_row header;
  let rule = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let bytes_cell n =
  let f = float_of_int n in
  if f >= 1e9 then Printf.sprintf "%.2fGB" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.1fMB" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fKB" (f /. 1e3)
  else Printf.sprintf "%dB" n
