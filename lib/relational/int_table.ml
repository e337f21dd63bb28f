(* Int-specialized supporting structures for the columnar kernels:

   - [Vec], a growable int vector (selection vectors, scratch row lists).
     [Topo_util.Dyn] would box every element (its slots are a variant), so
     kernels get a flat [int array] variant instead.
   - [t], an open-addressing multimap from int keys to int payloads
     (row numbers, bucket positions).  Entries with the same key form a
     chain in *insertion order* — the kernels must emit join matches in
     exactly the order the generic hash join's buckets would, so insertion
     order is part of the contract, not an accident.

   Like [Dyn], neither structure is thread-safe: a kernel builds its table
   privately inside [open_] and only reads it afterwards. *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create ?(capacity = 16) () = { a = Array.make (max 1 capacity) 0; n = 0 }

  let length v = v.n

  let get v i =
    if i < 0 || i >= v.n then invalid_arg (Printf.sprintf "Int_table.Vec.get %d (length %d)" i v.n);
    Array.unsafe_get v.a i

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let iter f v =
    for i = 0 to v.n - 1 do
      f (Array.unsafe_get v.a i)
    done

  let to_list v = List.init v.n (fun i -> v.a.(i))
end

type t = {
  mutable slots : int array;  (* chain-head entry index per slot, -1 = empty *)
  mutable tails : int array;  (* chain-tail entry index, valid where slots.(i) >= 0 *)
  mutable mask : int;  (* slot count - 1 (power of two) *)
  mutable used : int;  (* occupied slots = distinct keys *)
  (* Parallel per-entry arrays, in insertion order across all keys. *)
  mutable keys : int array;
  mutable payloads : int array;
  mutable next : int array;  (* next entry in this key's chain, -1 = end *)
  mutable n : int;  (* entry count *)
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(capacity = 16) () =
  let cap = max 16 capacity in
  (* Slots sized so [capacity] distinct keys stay under the load factor. *)
  let slot_cap = pow2_at_least (cap + (cap / 2)) 16 in
  {
    slots = Array.make slot_cap (-1);
    tails = Array.make slot_cap (-1);
    mask = slot_cap - 1;
    used = 0;
    keys = Array.make cap 0;
    payloads = Array.make cap 0;
    next = Array.make cap (-1);
    n = 0;
  }

let length t = t.n

(* Fibonacci-style multiplicative hash: sequential object ids (the common
   key distribution here) spread over the whole slot range. *)
let hash key mask =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land mask

(* Index of the slot holding [key]'s chain, or of the empty slot where it
   would start.  The table always keeps at least one empty slot (load
   factor < 1), so the linear probe terminates. *)
let find_slot t key =
  let rec probe i =
    let head = Array.unsafe_get t.slots i in
    if head < 0 || Array.unsafe_get t.keys head = key then i else probe ((i + 1) land t.mask)
  in
  probe (hash key t.mask)

let rehash t =
  let slot_cap = (t.mask + 1) * 2 in
  t.slots <- Array.make slot_cap (-1);
  t.tails <- Array.make slot_cap (-1);
  t.mask <- slot_cap - 1;
  (* Re-link every entry in insertion order: per-key chain order is part of
     the contract and must survive growth. *)
  for e = 0 to t.n - 1 do
    t.next.(e) <- -1;
    let i = find_slot t t.keys.(e) in
    if t.slots.(i) < 0 then t.slots.(i) <- e else t.next.(t.tails.(i)) <- e;
    t.tails.(i) <- e
  done;
  t.used <- 0;
  Array.iter (fun head -> if head >= 0 then t.used <- t.used + 1) t.slots

let add t key payload =
  if t.n = Array.length t.keys then begin
    let cap = 2 * t.n in
    let grow a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.n; b in
    t.keys <- grow t.keys;
    t.payloads <- grow t.payloads;
    t.next <- grow t.next
  end;
  let e = t.n in
  t.keys.(e) <- key;
  t.payloads.(e) <- payload;
  t.next.(e) <- -1;
  t.n <- e + 1;
  let i = find_slot t key in
  if t.slots.(i) < 0 then begin
    (* New distinct key: keep the slot array under 3/4 full. *)
    if 4 * (t.used + 1) > 3 * (t.mask + 1) then begin
      rehash t;
      let i = find_slot t key in
      t.slots.(i) <- e;
      t.tails.(i) <- e;
      t.used <- t.used + 1
    end
    else begin
      t.slots.(i) <- e;
      t.tails.(i) <- e;
      t.used <- t.used + 1
    end
  end
  else begin
    t.next.(t.tails.(i)) <- e;
    t.tails.(i) <- e
  end

let first t key =
  let i = find_slot t key in
  Array.unsafe_get t.slots i

let next_entry t e = Array.unsafe_get t.next e

let payload t e = Array.unsafe_get t.payloads e
