module J = Gpo_obs.Json

type t = {
  pool : Par.Pool.t;
  pool_jobs : int;
  queue_limit : int;
  depth : int Atomic.t;
  (* Serializes pool use: admission control (above) decides *whether* a
     batch gets in; this lock only decides *when* it runs.  A rejected
     batch never reaches it, so saturation answers immediately. *)
  run_lock : Mutex.t;
  (* Tripped by a second drain signal: every in-flight single-engine
     run polls it from its step loop and unwinds as [Cancelled], so a
     hard drain returns within one poll interval instead of finishing
     the batch.  One-way — the scheduler is shutting down. *)
  drain : Par.Cancel.t;
}

let c_jobs = Gpo_obs.Counter.make "serve.jobs"
let c_batches = Gpo_obs.Counter.make "serve.batches"
let c_rejected = Gpo_obs.Counter.make "serve.rejected"
let c_deduped = Gpo_obs.Counter.make "serve.batch.deduped"
let c_failed = Gpo_obs.Counter.make "serve.jobs.failed"
let g_depth = Gpo_obs.Gauge.make "serve.queue.depth"

let create ?(jobs = 1) ?(queue_limit = 64) () =
  let jobs = if jobs <= 0 then Par.Pool.default_jobs () else jobs in
  let queue_limit = max 1 queue_limit in
  List.iter Gpo_obs.Counter.touch [ c_jobs; c_batches; c_rejected; c_deduped ];
  {
    pool = Par.Pool.create ~jobs ();
    pool_jobs = jobs;
    queue_limit;
    depth = Atomic.make 0;
    run_lock = Mutex.create ();
    drain = Par.Cancel.create ();
  }

let pool_jobs t = t.pool_jobs
let queue_limit t = t.queue_limit
let depth t = Atomic.get t.depth
let cancel_inflight t = Par.Cancel.cancel t.drain
let shutdown t = Par.Pool.shutdown t.pool

(* ------------------------------------------------------------------ *)
(* Job preparation: everything that can be decided before a worker
   domain touches the job — the resolved query and its cache key.      *)

type prepared = {
  id : string;
  query : Harness.Query.t;
  key : Harness.Result_cache.key;
}

(* The verification service always runs GPO in its hardened
   configuration (the query default): the verdict is the product, and
   the paper configuration can miss deadlocks. *)
let prepare (job : Protocol.job) =
  let ( let* ) = Result.bind in
  let* net =
    match job.net with
    | Protocol.Inline text ->
        Result.map_error
          (Format.asprintf "net: %a" Petri.Parser.pp_error)
          (Petri.Parser.parse ~name:"net" text)
    | Protocol.Model { id; size } -> Harness.Query.model id size
  in
  let* engine = Harness.Query.engine_of_string job.engine in
  let* query =
    Harness.Query.make ~cover:job.cover ~engine ~max_states:job.max_states
      ~witness:job.witness ~reduce:job.reduce ~jobs:job.jobs
      ?deadline_s:job.timeout_s ?mem_mb:job.mem_mb net
  in
  Ok { id = job.id; query; key = Harness.Query.key query }

(* ------------------------------------------------------------------ *)
(* Execution of one (unique) job on a worker domain                    *)

let ok_result (p : prepared) ~cached (o : Harness.Engine.outcome) =
  {
    Protocol.id = p.id;
    status = Protocol.Ok;
    cached;
    deduped = false;
    certified =
      (if o.deadlock && o.witness <> None then
         Some (Harness.Certify.certified (Harness.Query.certify p.query o))
       else None);
    report = Some (Harness.Report.json_of_outcome o);
    metrics = J.Null;
  }

let failed_result id msg =
  Gpo_obs.Counter.incr c_failed;
  {
    Protocol.id;
    status = Protocol.Failed msg;
    cached = false;
    deduped = false;
    certified = None;
    report = None;
    metrics = J.Null;
  }

(* One request: probe the fault site, try the cache (hits re-certify
   their witness by replay before being served), run + store on a miss.
   Every event the job emits is captured on the worker domain and
   folded into the per-request metrics; failures stay inside this job's
   result.  Faulted runs store nothing — the cache only ever holds
   [Completed] outcomes. *)
let execute ?cancel (p : prepared) =
  let result, events =
    Gpo_obs.Scoped.capture (fun () ->
        Gpo_obs.Span.time "serve.request" (fun () ->
            try
              Guard.Fault.probe "serve.request";
              let target = p.query.target in
              match Harness.Result_cache.find ~verify_net:target p.key with
              | Some outcome -> ok_result p ~cached:true outcome
              | None ->
                  let outcome = Harness.Query.run ?cancel p.query in
                  ignore
                    (Harness.Result_cache.store
                       ~net_text:(Petri.Parser.to_string target)
                       p.key outcome
                      : bool);
                  ok_result p ~cached:false outcome
            with
            | Out_of_memory ->
                Guard.relieve_memory ();
                failed_result p.id "out of memory"
            | Par.Cancel.Cancelled -> failed_result p.id "cancelled"
            | Guard.Interrupted reason ->
                failed_result p.id
                  ("interrupted: " ^ Guard.describe_stop reason)
            | Failure msg -> failed_result p.id msg))
  in
  ({ result with Protocol.metrics = Gpo_obs.summarize_events events }, events)

(* ------------------------------------------------------------------ *)
(* Batch submission                                                    *)

type slot =
  | Immediate of Protocol.job_result  (** Failed preparation. *)
  | Unique of prepared  (** First job with this cache key. *)
  | Dup of { id : string; first : int }
      (** Same question as the slot at index [first]. *)

let submit t (batch : Protocol.job list) =
  let n = List.length batch in
  Gpo_obs.Counter.incr c_batches;
  (* Admission control: the whole batch gets in or none of it does. *)
  let rec admit () =
    let cur = Atomic.get t.depth in
    if cur + n > t.queue_limit then Error cur
    else if Atomic.compare_and_set t.depth cur (cur + n) then Ok ()
    else admit ()
  in
  match admit () with
  | Error cur ->
      Gpo_obs.Counter.incr c_rejected;
      Protocol.Rejected
        { reason = "queue_full"; limit = t.queue_limit; depth = cur; batch = n }
  | Ok () ->
      Gpo_obs.Gauge.set_int g_depth (Atomic.get t.depth);
      Fun.protect
        ~finally:(fun () ->
          ignore (Atomic.fetch_and_add t.depth (-n) : int);
          Gpo_obs.Gauge.set_int g_depth (Atomic.get t.depth))
        (fun () ->
          Gpo_obs.Counter.add c_jobs n;
          Mutex.lock t.run_lock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock t.run_lock)
            (fun () ->
              (* Name anonymous jobs, prepare, and dedupe by cache key:
                 only the first occurrence of a question is scheduled. *)
              let seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
              let slots =
                List.mapi
                  (fun i (job : Protocol.job) ->
                    let id =
                      if job.id = "" then Printf.sprintf "job-%d" i else job.id
                    in
                    match prepare { job with id } with
                    | Error msg -> Immediate (failed_result id msg)
                    | Ok p -> (
                        let k = Harness.Result_cache.render p.key in
                        match Hashtbl.find_opt seen k with
                        | Some first ->
                            Gpo_obs.Counter.incr c_deduped;
                            Dup { id; first }
                        | None ->
                            Hashtbl.add seen k i;
                            Unique p))
                  batch
              in
              let uniques =
                List.concat
                  (List.mapi
                     (fun i -> function Unique p -> [ (i, p) ] | _ -> [])
                     slots)
              in
              let executed =
                Par.Pool.map t.pool
                  (fun (i, p) -> (i, execute ~cancel:t.drain p))
                  uniques
              in
              (* Replay the workers' captured events to the shared sink
                 in batch order, so --metrics-out/--trace-out streams
                 stay coherent. *)
              let by_index = Hashtbl.create 16 in
              List.iter
                (fun (i, (result, events)) ->
                  Gpo_obs.Scoped.replay events;
                  Hashtbl.replace by_index i result)
                executed;
              let results =
                List.mapi
                  (fun i -> function
                    | Immediate r -> r
                    | Unique _ -> Hashtbl.find by_index i
                    | Dup { id; first } ->
                        {
                          (Hashtbl.find by_index first) with
                          Protocol.id;
                          deduped = true;
                          metrics = Gpo_obs.summarize_events [];
                        })
                  slots
              in
              Protocol.Results results))
