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
(* Wire codec: one [Wire.codec] value per layout, next to [key], so the
   canonical key, the cache key and the wire form evolve at one site.
   Two deliberate asymmetries with the in-memory types:

   - the deadline IS encoded (a shard must enforce it) even though [key]
     excludes it — the key names the answer, the wire carries the work;
   - the trace is NOT encoded: span trees are per-process observability,
     so a decoded outcome always has [trace = None].  [Serve.fingerprint]
     ignores traces, which is what makes sharded ≡ single-process
     comparisons meaningful. *)

module E = Topo_sql.Expr

let method_tag what = Wire.enum what Methods.all_methods

let expr =
  let cmp = Wire.enum "comparison tag" E.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  Wire.fix (fun expr ->
      Wire.(
        sum "expression tag"
          [
            case (u32 "column position") (fun i -> E.Col i) (function E.Col i -> Some i | _ -> None);
            case (value "constant") (fun v -> E.Const v) (function E.Const v -> Some v | _ -> None);
            case (triple cmp expr expr)
              (fun (c, a, b) -> E.Cmp (c, a, b))
              (function E.Cmp (c, a, b) -> Some (c, a, b) | _ -> None);
            case (list "conjunct count" expr) (fun es -> E.And es) (function E.And es -> Some es | _ -> None);
            case (list "disjunct count" expr) (fun es -> E.Or es) (function E.Or es -> Some es | _ -> None);
            case expr (fun e -> E.Not e) (function E.Not e -> Some e | _ -> None);
            case (pair expr (str "containment keyword"))
              (fun (e, kw) -> E.Contains (e, kw))
              (function E.Contains (e, kw) -> Some (e, kw) | _ -> None);
            case expr (fun e -> E.IsNull e) (function E.IsNull e -> Some e | _ -> None);
          ]))

let endpoint =
  Wire.(
    record (fun entity label pred -> { Query.entity; label; pred })
    |+ (str "endpoint entity", fun e -> e.Query.entity)
    |+ (str "endpoint label", fun e -> e.Query.label)
    |+ (option "endpoint predicate presence" expr, fun e -> e.Query.pred)
    |> seal)

let deadline =
  Wire.(
    sum "deadline tag"
      [
        case unit (fun () -> None) (function None -> Some () | Some _ -> None);
        case (f64 "wall deadline")
          (fun t -> Some (Budget.Wall t))
          (function Some (Budget.Wall t) -> Some t | _ -> None);
        case (i64 "tick deadline")
          (fun n -> Some (Budget.Ticks n))
          (function Some (Budget.Ticks n) -> Some n | _ -> None);
      ])

let request =
  Wire.(
    record (fun method_ scheme k deadline e1 e2 -> { method_; query = { Query.e1; e2 }; scheme; k; deadline })
    |+ (method_tag "method tag", fun (r : t) -> r.method_)
    |+ (enum "ranking scheme tag" Ranking.[ Freq; Rare; Domain ], fun r -> r.scheme)
    |+ (u32 "k", fun r -> r.k)
    |+ (deadline, fun r -> r.deadline)
    |+ (endpoint, fun r -> r.query.Query.e1)
    |+ (endpoint, fun r -> r.query.Query.e2)
    |> seal)

let result =
  let module O = Topo_sql.Optimizer in
  Wire.(
    record (fun ranked elapsed_s method_ strategy -> { ranked; elapsed_s; method_; strategy })
    |+ ( list "ranked length" (pair (i64 "ranked tid") (option "score presence" (f64 "score"))),
         fun (r : result) -> r.ranked )
    |+ (f64 "elapsed seconds", fun r -> r.elapsed_s)
    |+ (method_tag "result method tag", fun r -> r.method_)
    |+ (enum "strategy tag" [ None; Some O.Regular; Some O.Early_termination ], fun r -> r.strategy)
    |> seal)

let failure =
  Wire.(
    sum "failure tag"
      [
        case
          (triple (str "unknown pair t1") (str "unknown pair t2")
             (list "held pair count" (pair (str "held pair t1") (str "held pair t2"))))
          (fun (t1, t2, held) -> Unknown_pair { t1; t2; held })
          (function Unknown_pair { t1; t2; held } -> Some (t1, t2, held) | _ -> None);
        case
          (pair (u32 "unreachable shard") (str "unreachable reason"))
          (fun (shard, reason) -> Shard_unreachable { shard; reason })
          (function Shard_unreachable { shard; reason } -> Some (shard, reason) | _ -> None);
        case (str "failure message") (fun msg -> Internal msg) (function Internal msg -> Some msg | _ -> None);
      ])

let outcome_result =
  Wire.(
    sum "outcome tag"
      [
        case result (fun r -> Done r) (function Done r -> Some r | _ -> None);
        case result (fun r -> Partial r) (function Partial r -> Some r | _ -> None);
        case unit (fun () -> Rejected Overloaded) (function Rejected Overloaded -> Some () | _ -> None);
        case unit (fun () -> Rejected Expired) (function Rejected Expired -> Some () | _ -> None);
        case failure (fun f -> Failed f) (function Failed f -> Some f | _ -> None);
      ])

let outcome =
  let module C = Topo_sql.Iterator.Counters in
  Wire.(
    record (fun request result tuples index_probes rows_scanned served_by cache ->
        { request; result; counters = { C.tuples; index_probes; rows_scanned }; served_by; trace = None; cache })
    |+ (request, fun o -> o.request)
    |+ (outcome_result, fun o -> o.result)
    |+ (i64 "tuples counter", fun o -> o.counters.C.tuples)
    |+ (i64 "index probes counter", fun o -> o.counters.C.index_probes)
    |+ (i64 "rows scanned counter", fun o -> o.counters.C.rows_scanned)
    |+ (i64 "serving domain id", fun o -> o.served_by)
    |+ (enum "cache status tag" [ Hit; Miss; Uncached ], fun o -> o.cache)
    |> seal)

let write_payload = request.Wire.write

let read_payload = request.Wire.read

let write_outcome_payload = outcome.Wire.write

let read_outcome_payload = outcome.Wire.read

(* A batch payload is a u32 count and that many item payloads. *)
let read_batch_frame ~kind ~noun items (k, payload) =
  if k <> kind then
    Wire.fail "expected a %s frame, got a %s frame" (Wire.kind_name kind) (Wire.kind_name k);
  Wire.decode ~what:(noun ^ " payload") (Wire.list "batch size" items) payload

let batch_payload = Wire.encode (Wire.list "batch size" request)

let read_batch frame = read_batch_frame ~kind:Wire.kind_batch_request ~noun:"batch request" request frame

let outcome_batch_payload = Wire.encode (Wire.list "batch size" outcome)

let read_outcome_batch ?expect frame =
  let outcomes = read_batch_frame ~kind:Wire.kind_batch_outcome ~noun:"batch outcome" outcome frame in
  (match expect with
  | Some e when List.length outcomes <> e ->
      Wire.fail "batch outcome carries %d item(s) for a %d-request batch" (List.length outcomes) e
  | _ -> ());
  outcomes
