(* The scatter-gather router: the client side of sharded serving.

   A router owns one persistent connection per shard, dialed lazily and
   verified against the snapshot manifest: the shard's hello frame must
   carry the expected shard index and the per-shard engine fingerprint
   recorded at [build --shards] time, so a misconfigured deployment
   (sockets in the wrong order, stale slice) is refused before any
   query is misrouted.

   [exec] partitions the batch by the manifest's pair -> shard map (the
   pair-hash the snapshot writer used), scatters one batch frame per
   involved shard, then gathers replies and merges outcomes back into
   input order.  Scatter-then-gather means shards evaluate their
   sub-batches concurrently even though the router itself is a single
   domain.  A request whose pair the manifest does not hold is answered
   here, without a hop, as the unsliced engine would answer it.

   Degradation: if a shard cannot be reached — or dies mid-batch — its
   connection is redialed and the sub-batch retried once; if that also
   fails, that shard's requests yield [Failed (Shard_unreachable _)]
   outcomes while every other request in the batch completes
   normally.  Blocking reads are bounded by the socket timeout, so a
   hung shard degrades like a dead one instead of wedging the router. *)

type t = {
  manifest : Snapshot.manifest;
  addrs : Wire.addr array;
  timeout_s : float;
  retries : int;
  backoff_s : float;
  conns : Unix.file_descr option array;  (* lazily dialed, single-domain *)
}

let fail = Wire.fail

let create ~manifest ~addrs ?(timeout_s = 60.0) ?(retries = 3) ?(backoff_s = 0.05) () =
  let n = Array.length addrs in
  if n <> manifest.Snapshot.shards then
    fail "router: manifest names %d shard(s) but %d address(es) were given"
      manifest.Snapshot.shards n;
  { manifest; addrs; timeout_s; retries; backoff_s; conns = Array.make n None }

let close_conn t k =
  match t.conns.(k) with
  | None -> ()
  | Some fd ->
      t.conns.(k) <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let close t = Array.iteri (fun k _ -> close_conn t k) t.conns

(* Dial shard [k], read and verify its hello.  Connection refused is
   retried with exponential backoff — shards and router are typically
   started together, and the shard may still be binding. *)
let dial t k =
  let addr = t.addrs.(k) in
  (* Wire.connect folds every Unix failure into Wire.Error; any of them
     at dial time (refused, missing socket file, reset) means "shard not
     up yet" and is worth the bounded backoff. *)
  let rec attempt n backoff =
    match Wire.connect ~read_s:t.timeout_s ~write_s:t.timeout_s addr with
    | fd -> fd
    | exception Wire.Error _ when n < t.retries ->
        Unix.sleepf backoff;
        attempt (n + 1) (backoff *. 2.0)
  in
  let fd = attempt 0 t.backoff_s in
  match Wire.recv fd with
  | None ->
      Unix.close fd;
      fail "shard %d at %s closed the connection before its hello" k (Wire.addr_to_string addr)
  | Some (kind, payload) ->
      if kind <> Wire.kind_hello then begin
        Unix.close fd;
        fail "shard %d at %s sent a %s frame where a hello was expected" k
          (Wire.addr_to_string addr) (Wire.kind_name kind)
      end;
      let index, fp = Wire.decode ~what:"hello payload" Shard.hello payload in
      if index <> k then begin
        Unix.close fd;
        fail "shard address %d (%s) answered as shard %d — sockets passed in the wrong order?"
          k (Wire.addr_to_string addr) index
      end;
      let expected = t.manifest.Snapshot.fingerprints.(k) in
      if fp <> expected then begin
        Unix.close fd;
        fail "shard %d at %s serves fingerprint %s but the manifest records %s — stale slice?"
          k (Wire.addr_to_string addr) fp expected
      end;
      fd

let conn t k =
  match t.conns.(k) with
  | Some fd -> fd
  | None ->
      let fd = dial t k in
      t.conns.(k) <- Some fd;
      fd

let send_batch t k reqs =
  Wire.send (conn t k) ~kind:Wire.kind_batch_request (Request.batch_payload reqs)

let recv_batch t k ~expect =
  match Wire.recv (conn t k) with
  | None -> fail "shard %d closed the connection mid-batch" k
  | Some frame -> Request.read_outcome_batch ~expect frame

(* [Engine.run_request]'s outcome for an unbuilt pair: an expired
   deadline is still rejected first. *)
let unheld t (req : Request.t) ~t1 ~t2 =
  let held = List.map (fun (a, b, _) -> (a, b)) t.manifest.Snapshot.pairs in
  Request.unevaluated ~served_by:(-1)
    (match req.Request.deadline with
    | Some d when Budget.expired_now ~now:(Unix.gettimeofday ()) d -> Request.Rejected Request.Expired
    | _ -> Request.Failed (Request.unknown_pair ~t1 ~t2 held))
    req

let exec t requests =
  let shards = t.manifest.Snapshot.shards in
  let slots = Array.make (List.length requests) None in
  (* Partition, keeping each request's slot in the input order. *)
  let groups = Array.make shards [] in
  List.iteri
    (fun i (req : Request.t) ->
      let t1 = req.Request.query.Query.e1.Query.entity
      and t2 = req.Request.query.Query.e2.Query.entity in
      match Snapshot.manifest_shard t.manifest ~t1 ~t2 with
      | Some k -> groups.(k) <- (i, req) :: groups.(k)
      | None -> slots.(i) <- Some (unheld t req ~t1 ~t2))
    requests;
  let groups = Array.map List.rev groups in
  (* A socket-level failure: drop the connection and fail the shard's
     requests with the reason. *)
  let degrade shard e =
    close_conn t shard;
    let reason =
      match e with
      | Wire.Error msg -> msg
      | Unix.Unix_error (err, _, _) -> Unix.error_message err
      | e -> raise e
    in
    let failed = Request.Failed (Request.Shard_unreachable { shard; reason }) in
    List.iter (fun (i, req) -> slots.(i) <- Some (Request.unevaluated ~served_by:(-1) failed req)) groups.(shard)
  in
  (* Scatter: send every involved shard its sub-batch before reading any
     reply, so shards evaluate concurrently.  A shard that cannot even be
     reached degrades immediately. *)
  let sent = Array.make shards false in
  for k = 0 to shards - 1 do
    if groups.(k) <> [] then
      match send_batch t k (List.map snd groups.(k)) with
      | () -> sent.(k) <- true
      | exception ((Wire.Error _ | Unix.Unix_error _) as e) -> degrade k e
  done;
  (* Gather, retrying a failed shard once over a fresh connection — the
     replay is safe because shard evaluation is read-only over the
     slice.  A second failure degrades that shard's requests. *)
  for k = 0 to shards - 1 do
    if sent.(k) then begin
      let expect = List.length groups.(k) in
      let merge outcomes =
        List.iter2 (fun (i, _) o -> slots.(i) <- Some o) groups.(k) outcomes
      in
      match recv_batch t k ~expect with
      | outcomes -> merge outcomes
      | exception (Wire.Error _ | Unix.Unix_error _) -> (
          close_conn t k;
          let retry () =
            send_batch t k (List.map snd groups.(k));
            recv_batch t k ~expect
          in
          match retry () with
          | outcomes -> merge outcomes
          | exception ((Wire.Error _ | Unix.Unix_error _) as e) -> degrade k e)
    end
  done;
  Array.to_list
    (Array.mapi
       (fun i slot ->
         match slot with
         | Some o -> o
         | None -> fail "router: request %d received no outcome (merge bug)" i)
       slots)
