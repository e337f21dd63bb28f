(* Request universe and seeded request streams for the three workloads.

   The universe is every non-SQL method over every precomputed entity-set
   pair, every endpoint constraint on each side, every ranking scheme and
   k in {5, 10, 20}, deduplicated by [Request.key].  A seed orders it; the
   order is stratified by (method, pair), so every prefix of it carries
   the universe's method and pair mix.  Without that, which expensive
   requests land in a short timed phase would move qps from seed to seed
   more than any code change we want to see. *)

module Engine = Topo_core.Engine
module Methods = Topo_core.Methods
module Query = Topo_core.Query
module Ranking = Topo_core.Ranking
module Request = Topo_core.Request
module Prng = Topo_util.Prng
module Zipf = Topo_util.Zipf

let default_seed = 20070415
let scale = 0.5
let l = 3
let pruning_threshold = 25

let pairs =
  [
    ("Protein", "DNA");
    ("Protein", "Interaction");
    ("Protein", "Unigene");
    ("DNA", "Unigene");
    ("DNA", "Interaction");
  ]

(* The SQL method recomputes pair topologies from base data for every
   probe; one SQL request would outweigh thousands of others, so it
   stays in [bench table2]. *)
let methods = List.filter (fun m -> m <> Methods.Sql) Engine.all_methods
(* Full-Top and Fast-Top ignore scheme and k. *)
let unranked_methods = [ Methods.Full_top; Methods.Fast_top ]
let ks = [ 5; 10; 20 ]
let schemes = [ Ranking.Freq; Ranking.Rare; Ranking.Domain ]

(* A few words the generator draws into every entity's description. *)
let fillers = [ "membrane"; "nuclear"; "receptor"; "transporter"; "zinc" ]

let endpoints catalog entity =
  let calibrated =
    match entity with
    | "Protein" -> List.map fst Biozon.Vocab.protein_keywords
    | "Interaction" -> List.map fst Biozon.Vocab.interaction_keywords
    | _ -> []
  in
  let types = if entity = "DNA" then [ "mRNA"; "EST" ] else [] in
  (Query.endpoint catalog entity
  :: List.map (fun kw -> Query.keyword catalog entity ~col:"desc" ~kw) (calibrated @ fillers))
  @ List.map
      (fun ty -> Query.equals catalog entity ~col:"type" ~value:(Topo_sql.Value.Str ty))
      types

(* Every request of the universe, in a fixed enumeration order. *)
let universe catalog =
  let seen = Hashtbl.create 32768 in
  let out = ref [] in
  let add req =
    let key = Request.key req in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := req :: !out
    end
  in
  List.iter
    (fun (t1, t2) ->
      List.iter
        (fun e1 ->
          List.iter
            (fun e2 ->
              let q = Query.make e1 e2 in
              List.iter
                (fun m ->
                  if List.mem m unranked_methods then add (Request.make m q)
                  else
                    List.iter
                      (fun scheme -> List.iter (fun k -> add (Request.make ~scheme ~k m q)) ks)
                      schemes)
                methods)
            (endpoints catalog t2))
        (endpoints catalog t1))
    pairs;
  Array.of_list (List.rev !out)

let pair_of (r : Request.t) = (r.Request.query.Query.e1.Query.entity, r.Request.query.Query.e2.Query.entity)

(* Stratified shuffle: each request gets the position (i + u) / n inside
   its (method, pair) stratum, where i is its rank in the shuffled
   stratum and n the stratum size; sorting by position interleaves the
   strata in proportion to their sizes. *)
let order ~seed universe =
  let prng = Prng.create seed in
  let shuffled = Array.copy universe in
  Prng.shuffle prng shuffled;
  let strata = Hashtbl.create 64 in
  Array.iter
    (fun (r : Request.t) ->
      let s = (r.Request.method_, pair_of r) in
      Hashtbl.replace strata s (r :: Option.value ~default:[] (Hashtbl.find_opt strata s)))
    shuffled;
  let positioned = ref [] in
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) strata []) in
  List.iter
    (fun s ->
      let members = Array.of_list (List.rev (Hashtbl.find strata s)) in
      let n = float_of_int (Array.length members) in
      Array.iteri
        (fun i r -> positioned := ((float_of_int i +. Prng.float prng) /. n, r) :: !positioned)
        members)
    keys;
  let arr = Array.of_list !positioned in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) arr;
  Array.map snd arr

(* serve-distinct: a warm-up slice and a disjoint timed sequence. *)
let distinct_warmup = 200

let distinct ordered =
  let n = Array.length ordered in
  (Array.sub ordered 0 distinct_warmup, Array.sub ordered distinct_warmup (n - distinct_warmup))

(* serve-zipf: Zipf(1.0) over the first 8192 keys, 8x the default result
   cache, as a stream of draws. *)
let zipf_keys = 8192
let zipf_s = 1.0
let zipf_warmup = 4096

let zipf_stream ~seed ordered ~length =
  let hot = Array.sub ordered 0 zipf_keys in
  let z = Zipf.create ~n:zipf_keys ~s:zipf_s in
  let prng = Prng.create (seed + 1) in
  Array.init length (fun _ -> hot.(Zipf.sample z prng - 1))

(* routed-hot: 16-request batches drawn Zipf(1.0) over 512 keys.  The
   warm-up covers every key once, so the timed phase only ever hits. *)
let routed_keys = 512
let batch_size = 16

let routed_hot ordered = Array.sub ordered 0 routed_keys

let routed_warmup hot =
  List.init (routed_keys / batch_size) (fun b ->
      List.init batch_size (fun i -> hot.((b * batch_size) + i)))

(* An endless deterministic batch generator over [hot]. *)
let routed_batches ~seed hot =
  let z = Zipf.create ~n:(Array.length hot) ~s:zipf_s in
  let prng = Prng.create (seed + 2) in
  fun () -> List.init batch_size (fun _ -> hot.(Zipf.sample z prng - 1))
