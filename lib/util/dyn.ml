(* Growable array.  Elements live in [slot]s so that unused capacity and
   popped cells hold [Empty] rather than an unsafely-typed filler: the
   representation costs one indirection per element but keeps the module
   free of [Obj.magic], and [Empty] slots drop element references for
   the GC the moment they leave the live prefix. *)

type 'a slot = Empty | Elem of 'a

type 'a t = { mutable data : 'a slot array; mutable len : int }

let create () = { data = [||]; len = 0 }

let with_capacity n = { data = (if n <= 0 then [||] else Array.make n Empty); len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let check t i name =
  if i < 0 || i >= t.len then invalid_arg (Printf.sprintf "Dyn.%s: index %d out of bounds [0,%d)" name i t.len)

(* Only reachable on [data]/[len] corruption: every caller checks bounds
   first, and slots below [len] are always [Elem]. *)
let unslot name = function
  | Elem v -> v
  | Empty -> failwith (Printf.sprintf "Dyn.%s: empty slot inside the live prefix" name)

let get t i =
  check t i "get";
  unslot "get" t.data.(i)

let set t i v =
  check t i "set";
  t.data.(i) <- Elem v

let grow t =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let ndata = Array.make ncap Empty in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata

let push t v =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- Elem v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Dyn.pop: empty";
  t.len <- t.len - 1;
  let v = unslot "pop" t.data.(t.len) in
  t.data.(t.len) <- Empty;
  v

let last t =
  if t.len = 0 then invalid_arg "Dyn.last: empty";
  unslot "last" t.data.(t.len - 1)

let clear t =
  (* Drop references so the GC can reclaim elements. *)
  Array.fill t.data 0 t.len Empty;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f (unslot "iter" t.data.(i))
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (unslot "iteri" t.data.(i))
  done

let to_array t = Array.init t.len (fun i -> unslot "to_array" t.data.(i))

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (unslot "to_list" t.data.(i) :: acc) in
  loop (t.len - 1) []

let of_array a = { data = Array.map (fun v -> Elem v) a; len = Array.length a }

let of_list l = of_array (Array.of_list l)

let map f t =
  let out = with_capacity t.len in
  iter (fun v -> push out (f v)) t;
  out
