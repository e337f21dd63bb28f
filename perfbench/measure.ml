(* Clocks, order statistics, process counters and the report format.

   Every duration the benchmark takes comes from the same monotonic clock
   the program's own trace spans use, so call times and span times can be
   subtracted from each other. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank quantile of an unsorted sample; 0 on an empty one. *)
let quantile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

(* Mean of the two middle values on an even count. *)
let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- process state ------------------------------------------------------ *)

let status_field name =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = name ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.starts_with ~prefix line then
              Some (String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)))
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r

(* VmHWM, the resident-set high-water mark, in MB. *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith "perfbench: /proc/self/status has no VmHWM line"

(* CPUs this process may run on, from its affinity list ("0-1,4"). *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> 0
  | Some v ->
      List.fold_left
        (fun acc part ->
          match String.split_on_char '-' (String.trim part) with
          | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
          | [ a ] when a <> "" -> acc + 1
          | _ -> acc)
        0 (String.split_on_char ',' v)

type gc_counts = { minor : int; major : int }

let gc_counts () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections }

let gc_since before =
  let now = gc_counts () in
  { minor = now.minor - before.minor; major = now.major - before.major }

(* --- report ------------------------------------------------------------- *)

(* One reported metric: value, unit, and a note saying what it was
   computed from (sample counts, which run it comes from). *)
type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let print_metrics ms =
  List.iter
    (fun m ->
      Printf.printf "  %-34s %16.6f %-6s %s\n" m.name m.value m.unit_ m.note)
    ms

let result_line ~attempted ~failed ms =
  let open Topo_obs.Json in
  to_string
    (Obj
       [
         ("correct", Bool true);
         ("attempted", int attempted);
         ("failed", int failed);
         ("metrics", Obj (List.map (fun m -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ])) ms));
       ])
