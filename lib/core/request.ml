(* The shared request/outcome vocabulary of the query API.

   A [Request.t] is one unit of online work — (method, query, scheme, k)
   plus an optional deadline — and a [Request.outcome] is everything
   observable about evaluating it: how it ended (the four-way
   [outcome_result]), the isolated work counters, the domain that served
   it, its private trace, and whether the answer came from the cache.
   [Engine.run_request] evaluates one request and [Serve.exec] a batch;
   the CLI and the benchmarks speak these types too.

   Outcome state machine (see DESIGN.md "Overload control"):

     submitted --admission queue full--------------> Rejected Overloaded
     submitted --deadline already passed-----------> Rejected Expired
     admitted  --evaluates, budget never trips-----> Done result
     admitted  --ET loop trips the budget----------> Partial result (ranked prefix)
     admitted  --pair not built, shard down, raise-> Failed failure

   Only [Done] results are ever memoized: a [Partial] is a
   deadline-shaped prefix, not the answer, and rejected requests
   short-circuit before the cache is even consulted.

   [key] renders the canonical cache key.  Canonicalization folds two
   sources of accidental variety:

   - endpoint orientation: for distinct entity sets the evaluation aligns
     the query to the stored pair's orientation, so {A, B} and {B, A}
     with the same predicates are the same query — the two endpoint
     renderings are sorted.  Same-entity pairs keep their order (there
     alignment is positional, so orientation is meaningful).
   - scheme and k: the three non-top-k methods ignore both, so their keys
     omit them.

   The deadline is deliberately NOT part of the key: it bounds how long
   evaluation may run, not what the full answer is, so a cached [Done]
   answer is valid for any deadline (a hit costs no evaluation time and
   trivially meets it). *)

type t = {
  method_ : Methods.method_;
  query : Query.t;
  scheme : Ranking.scheme;
  k : int;
  deadline : Budget.deadline option;
}

let make ?(scheme = Ranking.Freq) ?(k = 10) ?deadline method_ query =
  { method_; query; scheme; k; deadline }

type result = {
  ranked : (int * float option) list;
  elapsed_s : float;
  method_ : Methods.method_;
  strategy : Topo_sql.Optimizer.strategy option;
}

type rejection = Overloaded | Expired

let rejection_name = function Overloaded -> "overloaded" | Expired -> "expired"

type failure =
  | Unknown_pair of { t1 : string; t2 : string; held : (string * string) list }
  | Shard_unreachable of { shard : int; reason : string }
  | Internal of string

let unknown_pair ~t1 ~t2 held = Unknown_pair { t1; t2; held = List.sort_uniq compare held }

let failure_to_string = function
  | Unknown_pair { t1; t2; held } ->
      Printf.sprintf "no %s-%s store (it holds %s)" t1 t2
        (String.concat ", " (List.map (fun (a, b) -> a ^ "-" ^ b) held))
  | Shard_unreachable { shard; reason } -> Printf.sprintf "shard %d unreachable: %s" shard reason
  | Internal msg -> msg

type outcome_result =
  | Done of result
  | Partial of result
  | Rejected of rejection
  | Failed of failure

let outcome_result_name = function
  | Done _ -> "done"
  | Partial _ -> "partial"
  | Rejected r -> "rejected-" ^ rejection_name r
  | Failed _ -> "failed"

let answered = function Done r | Partial r -> Some r | Rejected _ | Failed _ -> None

type cache_status = Hit | Miss | Uncached

type outcome = {
  request : t;
  result : outcome_result;
  counters : Topo_sql.Iterator.Counters.snapshot;
  served_by : int;
  trace : Topo_obs.Trace.t option;
  cache : cache_status;
}

let unevaluated ?trace ?(served_by = (Domain.self () :> int)) result request =
  {
    request;
    result;
    counters = { Topo_sql.Iterator.Counters.tuples = 0; index_probes = 0; rows_scanned = 0 };
    served_by;
    trace;
    cache = Uncached;
  }

let get_done o =
  match o.result with
  | Done r -> r
  | Failed f -> failwith (failure_to_string f)
  | (Partial _ | Rejected _) as res ->
      invalid_arg ("Request.get_done: outcome is " ^ outcome_result_name res)

let endpoint_key (e : Query.endpoint) =
  e.Query.entity ^ "["
  ^ (match e.Query.pred with None -> "" | Some p -> Topo_sql.Expr.to_string p)
  ^ "]"

let key r =
  let a = endpoint_key r.query.Query.e1 and b = endpoint_key r.query.Query.e2 in
  let a, b =
    if r.query.Query.e1.Query.entity <> r.query.Query.e2.Query.entity && a > b then (b, a)
    else (a, b)
  in
  let rank = if Methods.ranks r.method_ then Ranking.name r.scheme ^ "|" ^ string_of_int r.k else "-" in
  Printf.sprintf "%s|%s|%s|%s" (Methods.method_name r.method_) rank a b

let to_string (r : t) =
  Printf.sprintf "%s %s k=%d %s%s" (Methods.method_name r.method_) (Ranking.name r.scheme) r.k
    (Query.to_string r.query)
    (match r.deadline with
    | None -> ""
    | Some d -> " deadline=" ^ Budget.deadline_to_string d)

(* A workload line: METHOD[; scheme[; k[; kw1[; kw2]]]].  Matching the
   method name ignores case. *)
let of_workload_line catalog ~t1 ~t2 line =
  let line = match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line in
  let fields = String.split_on_char ';' line |> List.map String.trim in
  match fields with
  | [] | [ "" ] -> `Blank
  | m :: rest -> (
      let get i = Option.value ~default:"" (List.nth_opt rest i) in
      match
        List.find_opt
          (fun mm -> String.lowercase_ascii (Methods.method_name mm) = String.lowercase_ascii m)
          Methods.all_methods
      with
      | None -> `Malformed (Printf.sprintf "unknown method %S" m)
      | Some method_ -> (
          match
            if get 0 = "" then Some Ranking.Freq
            else try Some (Ranking.of_name (get 0)) with Invalid_argument _ -> None
          with
          | None -> `Malformed ("unknown scheme " ^ get 0)
          | Some scheme -> (
              match if get 1 = "" then Some 10 else int_of_string_opt (get 1) with
              | None -> `Malformed ("bad k " ^ get 1)
              | Some k when k < 1 -> `Malformed (Printf.sprintf "bad k %d (must be >= 1)" k)
              | Some k when k > Wire.max_u32 ->
                  `Malformed (Printf.sprintf "bad k %d (must be at most %d)" k Wire.max_u32)
              | Some k ->
                  let ep entity kw =
                    if kw = "" then Query.endpoint catalog entity
                    else Query.keyword catalog entity ~col:"desc" ~kw
                  in
                  `Request (make ~scheme ~k method_ (Query.make (ep t1 (get 2)) (ep t2 (get 3)))))))

(* ------------------------------------------------------------------ *)
(* Wire codec.

   The payload layouts live here, next to [key], so the canonical key,
   the cache key and the wire form evolve at one site; [Wire] supplies
   only the frame envelope and the primitives.  Two deliberate
   asymmetries with the in-memory types:

   - the deadline IS encoded (a shard must enforce it) even though [key]
     excludes it — the key names the answer, the wire carries the work;
   - the trace is NOT encoded: span trees are per-process observability,
     so a decoded outcome always has [trace = None].  [Serve.fingerprint]
     ignores traces, which is what makes sharded ≡ single-process
     comparisons meaningful. *)

module E = Topo_sql.Expr

let method_tag m =
  let rec idx i = function
    | [] -> Wire.fail "encode: method %s is not in Methods.all_methods" (Methods.method_name m)
    | m' :: tl -> if m' = m then i else idx (i + 1) tl
  in
  idx 0 Methods.all_methods

let method_of_tag tag =
  match List.nth_opt Methods.all_methods tag with
  | Some m -> m
  | None -> Wire.fail "corrupt request: unknown method tag %d" tag

let scheme_tag = function Ranking.Freq -> 0 | Ranking.Rare -> 1 | Ranking.Domain -> 2

let scheme_of_tag = function
  | 0 -> Ranking.Freq
  | 1 -> Ranking.Rare
  | 2 -> Ranking.Domain
  | t -> Wire.fail "corrupt request: unknown ranking scheme tag %d" t

let cmp_tag = function E.Eq -> 0 | E.Ne -> 1 | E.Lt -> 2 | E.Le -> 3 | E.Gt -> 4 | E.Ge -> 5

let cmp_of_tag = function
  | 0 -> E.Eq
  | 1 -> E.Ne
  | 2 -> E.Lt
  | 3 -> E.Le
  | 4 -> E.Gt
  | 5 -> E.Ge
  | t -> Wire.fail "corrupt predicate: unknown comparison tag %d" t

let rec w_expr buf = function
  | E.Col i ->
      Wire.w_u8 buf 0;
      Wire.w_u32 buf i
  | E.Const v ->
      Wire.w_u8 buf 1;
      Wire.w_value buf v
  | E.Cmp (c, a, b) ->
      Wire.w_u8 buf 2;
      Wire.w_u8 buf (cmp_tag c);
      w_expr buf a;
      w_expr buf b
  | E.And es ->
      Wire.w_u8 buf 3;
      Wire.w_u32 buf (List.length es);
      List.iter (w_expr buf) es
  | E.Or es ->
      Wire.w_u8 buf 4;
      Wire.w_u32 buf (List.length es);
      List.iter (w_expr buf) es
  | E.Not e ->
      Wire.w_u8 buf 5;
      w_expr buf e
  | E.Contains (e, kw) ->
      Wire.w_u8 buf 6;
      w_expr buf e;
      Wire.w_str buf kw
  | E.IsNull e ->
      Wire.w_u8 buf 7;
      w_expr buf e

let rec r_expr r =
  match Wire.r_u8 r "predicate tag" with
  | 0 -> E.Col (Wire.r_u32 r "column position")
  | 1 -> E.Const (Wire.r_value r "constant")
  | 2 ->
      let c = cmp_of_tag (Wire.r_u8 r "comparison tag") in
      let a = r_expr r in
      let b = r_expr r in
      E.Cmp (c, a, b)
  | 3 ->
      let n = Wire.r_count r "conjunct count" in
      E.And (Wire.r_list r n "conjunct" (fun () -> r_expr r))
  | 4 ->
      let n = Wire.r_count r "disjunct count" in
      E.Or (Wire.r_list r n "disjunct" (fun () -> r_expr r))
  | 5 -> E.Not (r_expr r)
  | 6 ->
      let e = r_expr r in
      E.Contains (e, Wire.r_str r "containment keyword")
  | 7 -> E.IsNull (r_expr r)
  | t -> Wire.fail "corrupt predicate: unknown expression tag %d" t

let w_opt buf w = function
  | None -> Wire.w_bool buf false
  | Some v ->
      Wire.w_bool buf true;
      w buf v

let r_opt r what f = if Wire.r_bool r what then Some (f r) else None

let w_endpoint buf (e : Query.endpoint) =
  Wire.w_str buf e.Query.entity;
  Wire.w_str buf e.Query.label;
  w_opt buf w_expr e.Query.pred

let r_endpoint r =
  let entity = Wire.r_str r "endpoint entity" in
  let label = Wire.r_str r "endpoint label" in
  let pred = r_opt r "endpoint predicate presence" r_expr in
  { Query.entity; pred; label }

let w_deadline buf = function
  | None -> Wire.w_u8 buf 0
  | Some (Budget.Wall t) ->
      Wire.w_u8 buf 1;
      Wire.w_f64 buf t
  | Some (Budget.Ticks n) ->
      Wire.w_u8 buf 2;
      Wire.w_i64 buf n

let r_deadline r =
  match Wire.r_u8 r "deadline tag" with
  | 0 -> None
  | 1 -> Some (Budget.Wall (Wire.r_f64 r "wall deadline"))
  | 2 -> Some (Budget.Ticks (Wire.r_i64 r "tick deadline"))
  | t -> Wire.fail "corrupt request: unknown deadline tag %d" t

let write_payload buf (req : t) =
  Wire.w_u8 buf (method_tag req.method_);
  Wire.w_u8 buf (scheme_tag req.scheme);
  Wire.w_u32 buf req.k;
  w_deadline buf req.deadline;
  w_endpoint buf req.query.Query.e1;
  w_endpoint buf req.query.Query.e2

let read_payload r =
  let method_ = method_of_tag (Wire.r_u8 r "method tag") in
  let scheme = scheme_of_tag (Wire.r_u8 r "ranking scheme tag") in
  let k = Wire.r_u32 r "k" in
  let deadline = r_deadline r in
  let e1 = r_endpoint r in
  let e2 = r_endpoint r in
  { method_; query = { Query.e1; e2 }; scheme; k; deadline }

let w_result buf (res : result) =
  Wire.w_u32 buf (List.length res.ranked);
  List.iter
    (fun (tid, score) ->
      Wire.w_i64 buf tid;
      w_opt buf Wire.w_f64 score)
    res.ranked;
  Wire.w_f64 buf res.elapsed_s;
  Wire.w_u8 buf (method_tag res.method_);
  Wire.w_u8 buf
    (match res.strategy with
    | None -> 0
    | Some Topo_sql.Optimizer.Regular -> 1
    | Some Topo_sql.Optimizer.Early_termination -> 2)

let r_result r =
  let n = Wire.r_count r "ranked length" in
  let ranked =
    Wire.r_list r n "ranked entry" (fun () ->
        let tid = Wire.r_i64 r "ranked tid" in
        let score = r_opt r "score presence" (fun r -> Wire.r_f64 r "score") in
        (tid, score))
  in
  let elapsed_s = Wire.r_f64 r "elapsed seconds" in
  let method_ = method_of_tag (Wire.r_u8 r "result method tag") in
  let strategy =
    match Wire.r_u8 r "strategy tag" with
    | 0 -> None
    | 1 -> Some Topo_sql.Optimizer.Regular
    | 2 -> Some Topo_sql.Optimizer.Early_termination
    | t -> Wire.fail "corrupt outcome: unknown strategy tag %d" t
  in
  { ranked; elapsed_s; method_; strategy }

let write_outcome_payload buf (o : outcome) =
  write_payload buf o.request;
  (match o.result with
  | Done res ->
      Wire.w_u8 buf 0;
      w_result buf res
  | Partial res ->
      Wire.w_u8 buf 1;
      w_result buf res
  | Rejected Overloaded -> Wire.w_u8 buf 2
  | Rejected Expired -> Wire.w_u8 buf 3
  | Failed f -> (
      Wire.w_u8 buf 4;
      match f with
      | Unknown_pair { t1; t2; held } ->
          Wire.w_u8 buf 0;
          Wire.w_str buf t1;
          Wire.w_str buf t2;
          Wire.w_u32 buf (List.length held);
          List.iter
            (fun (a, b) ->
              Wire.w_str buf a;
              Wire.w_str buf b)
            held
      | Shard_unreachable { shard; reason } ->
          Wire.w_u8 buf 1;
          Wire.w_u32 buf shard;
          Wire.w_str buf reason
      | Internal msg ->
          Wire.w_u8 buf 2;
          Wire.w_str buf msg));
  Wire.w_i64 buf o.counters.Topo_sql.Iterator.Counters.tuples;
  Wire.w_i64 buf o.counters.Topo_sql.Iterator.Counters.index_probes;
  Wire.w_i64 buf o.counters.Topo_sql.Iterator.Counters.rows_scanned;
  Wire.w_i64 buf o.served_by;
  Wire.w_u8 buf (match o.cache with Hit -> 0 | Miss -> 1 | Uncached -> 2)

let r_failure r =
  match Wire.r_u8 r "failure tag" with
  | 0 ->
      let t1 = Wire.r_str r "unknown pair t1" in
      let t2 = Wire.r_str r "unknown pair t2" in
      let n = Wire.r_count r "held pair count" in
      let held =
        Wire.r_list r n "held pair" (fun () ->
            let a = Wire.r_str r "held pair t1" in
            (a, Wire.r_str r "held pair t2"))
      in
      Unknown_pair { t1; t2; held }
  | 1 ->
      let shard = Wire.r_u32 r "unreachable shard" in
      Shard_unreachable { shard; reason = Wire.r_str r "unreachable reason" }
  | 2 -> Internal (Wire.r_str r "failure message")
  | t -> Wire.fail "corrupt outcome: unknown failure tag %d" t

let read_outcome_payload r =
  let request = read_payload r in
  let result =
    match Wire.r_u8 r "outcome tag" with
    | 0 -> Done (r_result r)
    | 1 -> Partial (r_result r)
    | 2 -> Rejected Overloaded
    | 3 -> Rejected Expired
    | 4 -> Failed (r_failure r)
    | t -> Wire.fail "corrupt outcome: unknown outcome tag %d" t
  in
  let tuples = Wire.r_i64 r "tuples counter" in
  let index_probes = Wire.r_i64 r "index probes counter" in
  let rows_scanned = Wire.r_i64 r "rows scanned counter" in
  let counters = { Topo_sql.Iterator.Counters.tuples; index_probes; rows_scanned } in
  let served_by = Wire.r_i64 r "serving domain id" in
  let cache =
    match Wire.r_u8 r "cache status tag" with
    | 0 -> Hit
    | 1 -> Miss
    | 2 -> Uncached
    | t -> Wire.fail "corrupt outcome: unknown cache status tag %d" t
  in
  { request; result; counters; served_by; trace = None; cache }

(* A batch payload is a u32 count and that many item payloads. *)
let write_batch write items =
  let buf = Buffer.create 4096 in
  Wire.w_u32 buf (List.length items);
  List.iter (write buf) items;
  Buffer.contents buf

let read_batch_frame ~kind ~noun ?expect read (k, payload) =
  if k <> kind then
    Wire.fail "expected a %s frame, got a %s frame" (Wire.kind_name kind) (Wire.kind_name k);
  let r = Wire.reader ~what:(noun ^ " payload") payload in
  let n = Wire.r_count r "batch size" in
  (match expect with
  | Some e when n <> e -> Wire.fail "%s carries %d item(s) for a %d-request batch" noun n e
  | _ -> ());
  let items = Wire.r_list r n noun (fun () -> read r) in
  Wire.r_end r;
  items

let batch_payload reqs = write_batch write_payload reqs

let read_batch frame =
  read_batch_frame ~kind:Wire.kind_batch_request ~noun:"batch request" read_payload frame

let outcome_batch_payload outcomes = write_batch write_outcome_payload outcomes

let read_outcome_batch ?expect frame =
  read_batch_frame ~kind:Wire.kind_batch_outcome ~noun:"batch outcome" ?expect read_outcome_payload
    frame
