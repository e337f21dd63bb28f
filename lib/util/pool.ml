(* A dependency-free domain pool for the offline build and the online
   serving tier.

   One batch runs at a time.  [parallel_map] installs the batch, wakes the
   workers, and the calling domain participates in draining it, so a pool
   with [jobs = n] keeps exactly [n] domains busy ([n - 1] spawned workers
   plus the caller).  A submission arriving while another batch is in
   flight (a second coordinator domain sharing the pool) waits on the
   [idle] condition and installs its batch when the pool frees up —
   batches queue instead of failing, so "a batch is already running" is
   not an observable state.  Tasks are claimed from a shared cursor under
   the pool mutex in contiguous chunks; results land in a preallocated
   slot per task, so the merged output is always in input order regardless
   of which domain ran what — [jobs = n] output is identical to
   [jobs = 1].

   Exceptions raised by tasks are caught and recorded; after the batch
   drains, the failure with the smallest task index is re-raised with its
   backtrace (deterministic even when several tasks fail).

   Calling [parallel_map] from inside a task (any nesting, on any pool)
   runs the nested batch inline and sequentially on the current domain:
   the pool never deadlocks on recursive submission and nested results are
   identical to flat ones. *)

type batch = {
  total : int;
  chunk : int;
  run : int -> unit;
  mutable next : int;  (* next unclaimed task index *)
  mutable completed : int;
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
}

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* a batch was installed, or shutdown was requested *)
  finished : Condition.t;  (* batch fully drained *)
  idle : Condition.t;  (* the pool has no installed batch; submitters may proceed *)
  mutable batch : batch option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  jobs : int;
}

(* True while the current domain is executing a pool task (worker domains
   set it once and forever; the coordinator sets it around its own
   participation).  Nested submissions check it to fall back to the inline
   sequential path. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_jobs_cap = 8

let default_jobs () = max 1 (min default_jobs_cap (Domain.recommended_domain_count ()))

let record_failure b i e bt =
  match b.failure with
  | Some (j, _, _) when j <= i -> ()
  | Some _ | None -> b.failure <- Some (i, e, bt)

(* Claim and run chunks of [b] until no unclaimed task remains.  Expects
   the pool lock held; returns with it held. *)
let drain pool b =
  while b.next < b.total do
    let lo = b.next in
    let hi = min b.total (lo + b.chunk) in
    b.next <- hi;
    Mutex.unlock pool.lock;
    for i = lo to hi - 1 do
      try b.run i
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock pool.lock;
        record_failure b i e bt;
        Mutex.unlock pool.lock
    done;
    Mutex.lock pool.lock;
    b.completed <- b.completed + (hi - lo);
    if b.completed = b.total then Condition.broadcast pool.finished
  done

let worker_loop pool =
  Domain.DLS.set in_task true;
  Mutex.lock pool.lock;
  let rec loop () =
    if pool.stop then Mutex.unlock pool.lock
    else
      match pool.batch with
      | Some b when b.next < b.total ->
          drain pool b;
          loop ()
      | Some _ | None ->
          Condition.wait pool.work pool.lock;
          loop ()
  in
  loop ()

let create ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let pool =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      idle = Condition.create ();
      batch = None;
      stop = false;
      workers = [||];
      jobs;
    }
  in
  pool.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let jobs pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.lock;
  let already = pool.stop in
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  if not already then Array.iter Domain.join pool.workers;
  pool.workers <- [||]

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let parallel_map ?(chunk = 1) pool input ~f =
  let total = Array.length input in
  if total = 0 then [||]
  else if pool.jobs <= 1 || total = 1 || Domain.DLS.get in_task then Array.map f input
  else begin
    let chunk = max 1 chunk in
    let results = Array.make total None in
    let run i = results.(i) <- Some (f input.(i)) in
    let b = { total; chunk; run; next = 0; completed = 0; failure = None } in
    Mutex.lock pool.lock;
    (* Another coordinator domain may have a batch in flight (e.g. two
       serving tiers sharing one pool): queue behind it rather than fail.
       Nested submissions never reach this point — the [in_task] check
       above routes them to the inline sequential path — so waiting here
       cannot deadlock on ourselves. *)
    while pool.batch <> None do
      Condition.wait pool.idle pool.lock
    done;
    pool.batch <- Some b;
    Condition.broadcast pool.work;
    Domain.DLS.set in_task true;
    drain pool b;
    Domain.DLS.set in_task false;
    while b.completed < b.total do
      Condition.wait pool.finished pool.lock
    done;
    pool.batch <- None;
    Condition.broadcast pool.idle;
    Mutex.unlock pool.lock;
    (match b.failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> failwith "Pool.parallel_map: task result missing after batch completion")
      results
  end
