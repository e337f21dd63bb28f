(* One shard of the distributed serving tier: a socket server over one
   snapshot slice.

   The accept loop runs on its own domain; each accepted connection gets
   a domain of its own that speaks the wire protocol sequentially —
   recv a frame, evaluate, send the reply.  Parallelism comes from two
   places: many connections evaluate concurrently, and each batch fans
   out over the server's shared [Pool] through [Serve.exec] exactly as a
   single-process server would.  The evaluation path is therefore
   byte-identical to local serving — which is what lets the router
   assert sharded ≡ single-process fingerprints.

   Admission control: [max_inflight] bounds the requests being evaluated
   across all connections, reserved batch-at-a-time with an [Atomic]
   compare-and-set (no lock on the admission path).  A batch that does
   not fit is answered immediately — every request [Rejected Overloaded]
   — rather than queued, mirroring [Serve]'s open-loop shed-don't-buffer
   policy across the process boundary.  Per-request deadlines travel
   inside the requests themselves and are enforced by [Engine.run_request]
   / [Budget] on this side, where the evaluation actually happens.

   Shutdown: [stop] shuts down the listening socket and every live
   connection before closing them — on Linux a plain [close] does NOT
   wake another domain blocked in [accept]/[read] on that fd, only
   [shutdown] does — then joins all the domains.  All logging goes to stderr —
   this module is on the serving hot path, where stdout is reserved for
   query results. *)

module Pool = Topo_util.Pool

type t = {
  addr : Wire.addr;
  listen_fd : Unix.file_descr;
  stopping : bool Atomic.t;
  lock : Mutex.t;  (* guards conns *)
  mutable conns : (Unix.file_descr * unit Domain.t) list;
  mutable accept_domain : unit Domain.t option;
  pool : Pool.t option;  (* owned: created at start, shut down at stop *)
  owns_pool : bool;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let log fmt = Printf.ksprintf (fun msg -> prerr_endline ("[shard] " ^ msg)) fmt

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Wake any domain blocked in accept/read on [fd], then close it.  The
   shutdown is the load-bearing half: closing an fd out from under a
   blocked syscall leaves that syscall blocked forever on Linux, which
   would turn stop()'s Domain.join into a hang. *)
let shutdown_and_close fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  close_quietly fd

(* Batch-at-a-time capacity reservation: admit the whole batch or none
   of it, so a half-admitted batch can never deadlock a client waiting
   for outcomes that were silently dropped. *)
let rec reserve inflight ~limit n =
  let cur = Atomic.get inflight in
  if cur + n > limit then false
  else if Atomic.compare_and_set inflight cur (cur + n) then true
  else reserve inflight ~limit n

let hello = Wire.(pair (u32 "shard index") (str "engine fingerprint"))

(* Evaluate one admitted batch through the shared serving tier.  The
   config is forced closed-loop onto the server's pool: open-loop pacing
   belongs to the client side of the socket, and the pool is what makes
   concurrent connections share the machine instead of oversubscribing
   it. *)
let evaluate ~serve ~pool ~inflight engine reqs =
  let n = List.length reqs in
  Fun.protect
    ~finally:(fun () -> ignore (Atomic.fetch_and_add inflight (-n)))
    (fun () ->
      let cfg = { serve with Serve.mode = Serve.Closed; pool } in
      (Serve.exec cfg engine reqs).Serve.outcomes)

let serve_conn ~serve ~pool ~inflight ~max_inflight ~shard ~fingerprint engine fd =
  Wire.send fd ~kind:Wire.kind_hello (Wire.encode hello (shard, fingerprint));
  let rec loop () =
    match Wire.recv fd with
    | None -> ()
    | Some frame ->
        let reqs = Request.read_batch frame in
        let outcomes =
          if reserve inflight ~limit:max_inflight (List.length reqs) then
            evaluate ~serve ~pool ~inflight engine reqs
          else List.map (Request.unevaluated (Request.Rejected Request.Overloaded)) reqs
        in
        Wire.send fd ~kind:Wire.kind_batch_outcome (Request.outcome_batch_payload outcomes);
        loop ()
  in
  loop ()

let start ?(serve = Serve.default) ?(max_inflight = 256) ?read_timeout_s ?(write_timeout_s = 30.0)
    ~shard addr engine =
  if max_inflight <= 0 then Wire.fail "shard: max_inflight must be positive, got %d" max_inflight;
  let fingerprint = Engine.fingerprint engine in
  let pool, owns_pool =
    match serve.Serve.pool with
    | Some p -> (Some p, false)
    | None -> (Some (Pool.create ?jobs:serve.Serve.jobs ()), true)
  in
  let listen_fd = Wire.listen addr in
  let t =
    {
      addr;
      listen_fd;
      stopping = Atomic.make false;
      lock = Mutex.create ();
      conns = [];
      accept_domain = None;
      pool;
      owns_pool;
    }
  in
  let inflight = Atomic.make 0 in
  (* A handler deregisters itself before closing its fd, so the registry
     only ever holds live descriptors — no risk of stop() closing a
     recycled fd number that now belongs to someone else. *)
  let deregister fd =
    with_lock t.lock (fun () -> t.conns <- List.filter (fun (fd', _) -> fd' <> fd) t.conns)
  in
  let handle fd =
    Fun.protect
      ~finally:(fun () ->
        (* Normal churn: the handler owns its fd, deregisters, closes.
           During stop the fd stays registered and open — stop() shuts
           it down to wake us, joins, and closes it afterwards, so the
           descriptor has exactly one owner at every moment. *)
        if not (Atomic.get t.stopping) then begin
          deregister fd;
          close_quietly fd
        end)
      (fun () ->
        match
          serve_conn ~serve ~pool ~inflight ~max_inflight ~shard ~fingerprint engine fd
        with
        | () -> ()
        | exception Wire.Error msg ->
            if not (Atomic.get t.stopping) then log "shard %d: connection dropped: %s" shard msg
        | exception Unix.Unix_error (e, _, _) ->
            if not (Atomic.get t.stopping) then
              log "shard %d: connection error: %s" shard (Unix.error_message e))
  in
  let accept_loop () =
    let rec loop () =
      match Unix.accept t.listen_fd with
      | fd, _ ->
          Wire.set_timeouts ?read_s:read_timeout_s ~write_s:write_timeout_s fd;
          with_lock t.lock (fun () ->
              let d = Domain.spawn (fun () -> handle fd) in
              t.conns <- (fd, d) :: t.conns);
          loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
          (* stop() closed the listening socket. *)
          ()
      | exception Unix.Unix_error (e, _, _) ->
          if not (Atomic.get t.stopping) then
            log "shard %d: accept failed: %s" shard (Unix.error_message e)
    in
    loop ()
  in
  t.accept_domain <- Some (Domain.spawn accept_loop);
  log "shard %d serving %s on %s (max_inflight %d)" shard
    (String.sub fingerprint 0 (min 12 (String.length fingerprint)))
    (Wire.addr_to_string addr) max_inflight;
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    shutdown_and_close t.listen_fd;
    (match t.accept_domain with Some d -> Domain.join d | None -> ());
    let conns = with_lock t.lock (fun () -> t.conns) in
    List.iter
      (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (_, d) -> Domain.join d) conns;
    (* Handlers that raced past the stopping flag deregistered and closed
       their own fd; everything still registered is ours to close. *)
    let rest =
      with_lock t.lock (fun () ->
          let c = t.conns in
          t.conns <- [];
          c)
    in
    List.iter (fun (fd, _) -> close_quietly fd) rest;
    if t.owns_pool then Option.iter Pool.shutdown t.pool;
    match t.addr with
    | Wire.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Wire.Tcp _ -> ()
  end

let wait t = match t.accept_domain with Some d -> Domain.join d | None -> ()
