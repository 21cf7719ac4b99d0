(* benchtrace — one pass of the verdict benchmark's in-process replay.

     benchtrace traced|untraced|reference WORKLOAD QUESTIONS.json
                STREAM.json BLOCKS WORKDIR PRISTINE|- OUT.json TRACE.json

   Replays the request stream in-process, calling each library's public
   functions in the order the program's own path calls them.  The
   stream is cut into about BLOCKS blocks; the pass prints "ready N"
   (N blocks), then runs the block whose number it reads on each line
   of standard input and answers "done".  The daemon's journal starts
   from a copy of PRISTINE ("-": an empty cache).

   traced     every call wrapped in a span (request id, parent); writes
              the per-layer ledger to OUT and a Chrome trace that opens
              in Perfetto to TRACE
   untraced   the same calls, every span off; writes the time per request
   reference  the real scheduler behind the real codecs; writes the
              server-side time per request and the pool's counts

   The spans live here, not in the libraries: the program is measured
   from outside.  Spans the libraries already emit (gpo.scan, gpo.fire,
   certify.replay, ...) are read back through a scoped [Gpo_obs]
   capture and attached as children of the call that emitted them. *)

open Benchcommon

(* ------------------------------------------------------------------ *)
(* Span recorder                                                       *)

type span = {
  sid : int;
  parent : int;
  req : int;
  name : string;
  layer : string;
  t0 : float;
  mutable t1 : float;
  mutable child : float;  (* time covered by direct children *)
}

let recording = ref false
let open_spans : span list ref = ref []
let next_sid = ref 1
let current_req = ref 0

(* Finished spans are summed by name as they close: layer, calls, self
   and inclusive seconds.  Only the first [trace_cap] are kept, for the
   Chrome trace, so the live heap, and with it the collector's work that
   the traced pass would pay and the untraced one not, stays small. *)
let by_name : (string, string * int * float * float) Hashtbl.t = Hashtbl.create 32
let trace_cap = 20_000
let kept : span list ref = ref []
let n_kept = ref 0

let push_finished s =
  let dur = s.t1 -. s.t0 in
  (match !open_spans with p :: _ -> p.child <- p.child +. dur | [] -> ());
  let l, c, self, incl =
    Option.value ~default:(s.layer, 0, 0., 0.) (Hashtbl.find_opt by_name s.name)
  in
  Hashtbl.replace by_name s.name (l, c + 1, self +. dur -. s.child, incl +. dur);
  if !n_kept < trace_cap then begin
    kept := s :: !kept;
    incr n_kept
  end

let span ~layer name f =
  if not !recording then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p.sid | [] -> 0 in
    let s =
      { sid = !next_sid; parent; req = !current_req; name; layer;
        t0 = Unix.gettimeofday (); t1 = 0.; child = 0. }
    in
    incr next_sid;
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        open_spans := List.tl !open_spans;
        push_finished s)
      f
  end

(* Sums over the traced pass, by name: calls, sizes, and the counter
   deltas and library span times of the direct engine calls (a
   portfolio's entrants count in neither).  Other passes add nothing. *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let get name = Option.value ~default:0. (Hashtbl.find_opt sums name)
let add name v = if !recording then Hashtbl.replace sums name (v +. get name)

(* The library spans a call emitted, folded per direct-child name.  The
   call's own "engine.*" frame and the explorer's worker frame are
   transparent (at one worker the latter wraps the whole exploration on
   the calling domain); deeper paths stay inside their direct child. *)
let library_children events =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Gpo_obs.event) ->
      if e.kind = Gpo_obs.Span_v then
        match List.assoc_opt "dur_s" e.fields with
        | Some (Gpo_obs.F dur) ->
            let parts = String.split_on_char '/' e.name in
            let parts =
              List.filter
                (fun p ->
                  not (String.starts_with ~prefix:"engine." p || p = "gpn.worker"))
                parts
            in
            (match parts with
            | [ leaf ] ->
                Hashtbl.replace tbl leaf
                  (dur +. Option.value ~default:0. (Hashtbl.find_opt tbl leaf))
            | _ -> ())
        | _ -> ())
    events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let layer_of_library_span name =
  let has p = String.starts_with ~prefix:p name in
  if has "gpo." || has "gpn." then "gpn"
  else if has "reach." then "petri"
  else if has "smv." then "bddkit"
  else if has "reduce." then "reduce"
  else "harness"

(* [probe] runs [f] inside a span and attaches the library spans it
   emitted as synthetic children laid end to end from the span start. *)
let probe ~layer name f =
  if not !recording then f ()
  else
    span ~layer name (fun () ->
        let v, events = Gpo_obs.Scoped.capture f in
        let me = List.hd !open_spans in
        let t = ref me.t0 in
        List.iter
          (fun (leaf, dur) ->
            push_finished
              { sid = !next_sid; parent = me.sid; req = me.req; name = leaf;
                layer = layer_of_library_span leaf; t0 = !t; t1 = !t +. dur;
                child = 0. };
            incr next_sid;
            t := !t +. dur;
            add (name ^ "/" ^ leaf) dur)
          (library_children events);
        v)

(* ------------------------------------------------------------------ *)
(* The program's paths, one public call at a time                      *)

type verdict = { v : string; certified : bool option }

let verdict_of (o : Harness.Engine.outcome) certified =
  let v =
    if o.deadlock then "violated"
    else if Harness.Engine.truncated o then "inconclusive"
    else "holds"
  in
  { v; certified }

let engine_kind = function
  | "full" -> Some Harness.Engine.Full
  | "po" -> Some Harness.Engine.Stubborn
  | "smv" -> Some Harness.Engine.Symbolic
  | "gpo" -> Some Harness.Engine.Gpo
  | "portfolio" -> None
  | e -> die "unknown engine %s" e

let engine_span = function
  | Harness.Engine.Full -> ("reach.explore", "petri")
  | Harness.Engine.Stubborn -> ("stubborn.explore", "petri")
  | Harness.Engine.Symbolic -> ("bdd.analyse", "bddkit")
  | Harness.Engine.Gpo -> ("gpn.analyse", "gpn")

let count name = add name 1.
let bdd_peak = ref 0.
let g_peak = Gpo_obs.Gauge.make "smv.peak_live_nodes"
let g_journal = Gpo_obs.Gauge.make "serve.journal.bytes"

let max_states = 5_000_000

let counter name = Gpo_obs.Counter.value (Gpo_obs.Counter.make name)

let counters =
  List.map
    (fun n -> (n, Gpo_obs.Counter.make n))
    [ "gpo.deviations_scheduled"; "gpo.restarts"; "gpo.states"; "reach.states";
      "stubborn.closures"; "bdd.apply.cache_hit"; "bdd.apply.cache_miss";
      "bdd.ite.cache_hit"; "bdd.ite.cache_miss"; "portfolio.cancelled_losers";
      "certify.accepted"; "worldset.union.cache_hit";
      "worldset.union.cache_miss"; "worldset.inter.cache_hit";
      "worldset.inter.cache_miss"; "worldset.diff.cache_hit";
      "worldset.diff.cache_miss"; "worldset.filter.cache_hit";
      "worldset.filter.cache_miss" ]

let read_counters () = List.map (fun (n, c) -> (n, Gpo_obs.Counter.value c)) counters

let delta before after =
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

(* One engine run, as [Harness.Engine.run ~reduce] performs it:
   reduce, run on the reduced net, lift the witness back. *)
let run_single ~reduce ~jobs kind target =
  let red =
    if reduce then
      Some
        (span ~layer:"reduce" "reduce.run" (fun () ->
             count "reduce.run";
             Reduce.run ~query:Reduce.Deadlock target))
    else None
  in
  Option.iter (fun r -> add "reduce.ratio" (Reduce.ratio r)) red;
  let net = match red with Some r -> r.Reduce.net | None -> target in
  let name, layer = engine_span kind in
  let before = read_counters () in
  let o =
    probe ~layer name (fun () ->
        count name;
        Harness.Engine.run ~max_states ~witness:true ~gpo_scan:true
          ~jobs kind net)
  in
  List.iter (fun (n, d) -> add n (float_of_int d)) (delta before (read_counters ()));
  if !recording && kind = Harness.Engine.Symbolic then
    bdd_peak := Float.max !bdd_peak (Gpo_obs.Gauge.value g_peak);
  match (red, o.witness) with
  | Some r, Some w ->
      let w =
        span ~layer:"reduce" "reduce.lift" (fun () ->
            Reduce.lift r w)
      in
      { o with witness = Some w }
  | _ -> o

(* Portfolio runs of the traced pass, to be re-run with their winner
   alone once the request is over: (winner, reduce, net, raced seconds). *)
let pending_solos = ref []

let run_engine ~reduce ~jobs engine target =
  match engine_kind engine with
  | Some kind -> run_single ~reduce ~jobs kind target
  | None ->
      let t0 = Unix.gettimeofday () in
      let r =
        probe ~layer:"harness" "portfolio.run" (fun () ->
            count "portfolio.run";
            Harness.Portfolio.run ~max_states ~witness:true
              ~gpo_scan:true ~reduce ~jobs target)
      in
      if !recording then
        pending_solos :=
          (r.Harness.Portfolio.outcome.kind, reduce, target,
           Unix.gettimeofday () -. t0)
          :: !pending_solos;
      r.Harness.Portfolio.outcome

(* portfolio.overhead_ratio: each race against its winner run alone,
   outside every span. *)
let run_pending_solos ~jobs =
  List.iter
    (fun (kind, reduce, target, raced) ->
      recording := false;
      let t0 = Unix.gettimeofday () in
      ignore
        (Harness.Engine.run ~max_states ~witness:true ~gpo_scan:true
           ~reduce ~jobs kind target
          : Harness.Engine.outcome);
      let solo = Unix.gettimeofday () -. t0 in
      recording := true;
      add "portfolio.ratio" (raced /. solo))
    !pending_solos;
  pending_solos := []

let certify net prop (o : Harness.Engine.outcome) =
  if o.deadlock && o.witness <> None then
    span ~layer:"harness" "certify" (fun () ->
        Some
          (Harness.Certify.certified
             (match prop with
             | None -> Harness.Certify.deadlock net o
             | Some p -> Harness.Certify.safety net p o)))
  else None

let parse text =
  span ~layer:"petri" "petri.parse" (fun () ->
      Petri.Parser.of_string ~name:"net" text)

let monitor net cover =
  match cover with
  | [] -> (net, None)
  | _ ->
      span ~layer:"petri" "petri.monitor" (fun () ->
          target_of net cover)

(* cold-gpo: what [julie certify/safety -e gpo -j 1 -f FILE] does. *)
let cold_question text (q : question) =
  let net = parse text in
  let target, prop = monitor net q.cover in
  let o = run_single ~reduce:false ~jobs:1 Harness.Engine.Gpo target in
  verdict_of o (certify net prop o)

let sel_name engine =
  match engine_kind engine with
  | Some k -> Harness.Engine.name k
  | None -> "portfolio"

(* The server side of one job, as [Serve.Scheduler] performs it:
   prepare (parse, monitor, digest, key), find (hits re-certify), run
   and store on a miss, certify, render the report. *)
let serve_job ~jobs text (q : question) =
  let net = parse text in
  let target, prop = monitor net q.cover in
  let digest =
    span ~layer:"petri" "petri.digest" (fun () ->
        Petri.Net.digest target)
  in
  let key =
    Harness.Result_cache.key
      ?property:
        (if q.cover = [] then None
         else Some ("cover:" ^ String.concat "," q.cover))
      ~digest ~engine:(sel_name q.engine) ~max_states ~witness:true
      ~gpo_scan:true ~reduce:q.reduce ()
  in
  let t0 = Unix.gettimeofday () in
  let found =
    probe ~layer:"harness" "cache.find" (fun () ->
        Harness.Result_cache.find ~verify_net:target key)
  in
  let find_s = Unix.gettimeofday () -. t0 in
  let o =
    match found with
    | Some o ->
        count "cache.find_hit";
        add "cache.find_hit_s" find_s;
        o
    | None ->
        count "cache.find_miss";
        add "cache.find_miss_s" find_s;
        let o = run_engine ~reduce:q.reduce ~jobs q.engine target in
        let text =
          span ~layer:"petri" "petri.print" (fun () ->
              Petri.Parser.to_string target)
        in
        span ~layer:"harness" "cache.store" (fun () ->
            let bytes = Gpo_obs.Gauge.value g_journal in
            if Harness.Result_cache.store ~net_text:text key o then begin
              count "cache.stored";
              (* A compaction shrinks the journal: no append to count. *)
              add "journal.bytes"
                (Float.max 0. (Gpo_obs.Gauge.value g_journal -. bytes))
            end);
        o
  in
  let certified = certify net prop o in
  let report =
    span ~layer:"harness" "report.json" (fun () ->
        Harness.Report.json_of_outcome o)
  in
  (verdict_of o certified, report, certified)

let protocol_job text (q : question) =
  Serve.Protocol.job ~id:q.id ~cover:q.cover ~engine:q.engine ~reduce:q.reduce
    ~timeout_s:10. (Serve.Protocol.Inline text)

(* The request frame as the client sends it (built outside every span:
   client-side work is not part of the server's round trip). *)
let request_frame texts (qs : question list) =
  J.to_string
    (Serve.Protocol.json_of_request
       (Serve.Protocol.Submit (List.map (fun q -> protocol_job (texts q) q) qs)))

(* One serve request as the daemon handles it: decode the frame, run
   each job, encode the response. *)
let serve_request ~jobs texts frame (qs : question list) =
  add "protocol.request_bytes" (float_of_int (String.length frame));
  ignore
    (span ~layer:"serve" "protocol.decode" (fun () ->
         match J.of_string frame with
         | Ok j -> Serve.Protocol.request_of_json j
         | Error e -> die "decode: %s" e)
      : (Serve.Protocol.request, string) result);
  let results =
    List.map
      (fun (q : question) ->
        let v, report, certified = serve_job ~jobs (texts q) q in
        ( v,
          {
            Serve.Protocol.id = q.id;
            status = Serve.Protocol.Ok;
            cached = false;
            deduped = false;
            certified;
            report = Some report;
            metrics = J.Null;
          } ))
      qs
  in
  let resp =
    span ~layer:"serve" "protocol.encode" (fun () ->
        J.to_string
          (Serve.Protocol.json_of_response
             (Serve.Protocol.Results (List.map snd results))))
  in
  add "protocol.response_bytes" (float_of_int (String.length resp));
  List.map fst results

(* ------------------------------------------------------------------ *)
(* passes                                                              *)

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec chunks size l =
  if l = [] then []
  else
    List.filteri (fun i _ -> i < size) l
    :: chunks size (List.filteri (fun i _ -> i >= size) l)

(* Attach the cache to [dir], holding a private copy of the journal
   [pristine] (or nothing), and report how long recovery took. *)
let fresh_cache dir pristine =
  mkdir_p dir;
  let j = Filename.concat dir "results.journal" in
  if Sys.file_exists j then Sys.remove j;
  Option.iter (fun p -> copy_file p j) pristine;
  Harness.Result_cache.invalidate ();
  let t0 = Unix.gettimeofday () in
  match Harness.Result_cache.attach dir with
  | Ok r -> (Unix.gettimeofday () -. t0, r.Harness.Result_cache.recovered)
  | Error e -> die "cache attach: %s" e

let span_total name snap =
  List.fold_left
    (fun acc (path, (s : Gpo_obs.span_stats)) ->
      let leaf =
        match List.rev (String.split_on_char '/' path) with
        | l :: _ -> l
        | [] -> path
      in
      if leaf = name then acc +. s.total_s else acc)
    0. snap.Gpo_obs.spans

(* One pass of the replay.  Each pass runs in a process of its own, so
   each starts from the state a fresh daemon (or julie process) starts
   from and sees every request once, as the daemon does: a second look
   at a request in one process would find the libraries' memo tables
   and interning warm.  The requests come in blocks, by number on
   standard input, one a line; the pass answers "done" after each, and
   the caller interleaves the passes block by block.  At end of input
   the pass writes its results to OUT. *)
let pass kind workload qfile sfile blocks workdir pristine out trace_out =
  let doc = read_json qfile in
  let texts = Hashtbl.create 64 in
  List.iter
    (fun n -> Hashtbl.replace texts (to_str (mem "id" n)) (to_str (mem "text" n)))
    (to_list (mem "nets" doc));
  let questions = Hashtbl.create 64 in
  List.iter
    (fun j ->
      let q = question_of_json j in
      Hashtbl.replace questions q.id q)
    (to_list (mem "questions" doc));
  let text_of (q : question) = Hashtbl.find texts q.net in
  let q_of id =
    match Hashtbl.find_opt questions id with
    | Some q -> q
    | None -> die "unknown question %s" id
  in
  let stream =
    List.map (fun b -> List.map (fun i -> q_of (to_str i)) (to_list b))
      (to_list (read_json sfile))
  in
  if stream = [] then die "empty stream";
  let serve = workload <> "cold-gpo" in
  let pool_jobs = if workload = "serve-mixed" then 2 else 1 in
  (* The daemon installs a sink of last resort; julie runs without one.
     The traced pass needs one for the libraries' spans and counters. *)
  if serve || kind = "traced" then Gpo_obs.install Gpo_obs.null_sink;
  (* The daemon's start: its journal recovered (five times in the
     traced pass, for cache.recover_s); the last attach stays. *)
  let recover =
    if serve then
      List.init
        (if kind = "traced" then 5 else 1)
        (fun k ->
          if k > 0 then Harness.Result_cache.detach ();
          fresh_cache (Filename.concat workdir (string_of_int k)) pristine)
    else []
  in
  let sched =
    if kind = "reference" then Some (Serve.Scheduler.create ~jobs:pool_jobs ())
    else None
  in
  let run_request batch =
    if serve then begin
      let frame = request_frame text_of batch in
      span ~layer:"unattributed" "request" (fun () ->
          serve_request ~jobs:1 text_of frame batch)
    end
    else
      span ~layer:"unattributed" "request" (fun () ->
          List.map (fun q -> cold_question (text_of q) q) batch)
  in
  (* A request's own duration; between cold questions the caches are
     dropped, since each julie process starts with empty ones. *)
  let timed_request batch =
    let t0 = Unix.gettimeofday () in
    let v = run_request batch in
    let d = Unix.gettimeofday () -. t0 in
    if not serve then Guard.relieve_memory ();
    (v, d)
  in
  let verdicts = Hashtbl.create 64 in
  (* Each request's own duration, newest first. *)
  let durations = ref [] in
  let traced_block block =
    recording := true;
    List.iter
      (fun batch ->
        incr current_req;
        let vs, d = timed_request batch in
        durations := d :: !durations;
        run_pending_solos ~jobs:1;
        List.iter2
          (fun (q : question) v ->
            if not (Hashtbl.mem verdicts q.id) then Hashtbl.add verdicts q.id v)
          batch vs)
      block;
    recording := false
  in
  (* Untraced: every span off; for the serve workloads each request in
     a capture, as the daemon runs its jobs. *)
  let per_question = Hashtbl.create 64 in
  let untraced_block block =
    List.iter
      (fun batch ->
        let _, d =
          if serve then fst (Gpo_obs.Scoped.capture (fun () -> timed_request batch))
          else timed_request batch
        in
        (match batch with
        | [ q ] when not serve ->
            let n, s =
              Option.value ~default:(0, 0.) (Hashtbl.find_opt per_question q.id)
            in
            Hashtbl.replace per_question q.id (n + 1, s +. d)
        | _ -> ());
        durations := d :: !durations)
      block
  in
  (* Reference: the real scheduler behind the real codecs, as the daemon
     runs them. *)
  let submit_s = ref 0. and server_s = ref 0. in
  let busy = ref 0. in
  let p0 = (counter "par.pool.tasks", counter "par.steals") in
  let reference_block sched block =
    let busy0 = span_total "serve.request" (Gpo_obs.snapshot ()) in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun batch ->
        let frame = request_frame text_of batch in
        let a = Unix.gettimeofday () in
        let req =
          match J.of_string frame with
          | Ok j -> Serve.Protocol.request_of_json j
          | Error e -> die "decode: %s" e
        in
        let b = Unix.gettimeofday () in
        let resp =
          match req with
          | Ok (Serve.Protocol.Submit jobs) -> Serve.Scheduler.submit sched jobs
          | _ -> die "reference pass: undecodable request"
        in
        let c = Unix.gettimeofday () in
        ignore (J.to_string (Serve.Protocol.json_of_response resp) : string);
        submit_s := !submit_s +. (c -. b);
        server_s := !server_s +. (Unix.gettimeofday () -. a))
      block;
    busy := !busy +. span_total "serve.request" (Gpo_obs.snapshot ()) -. busy0;
    Unix.gettimeofday () -. t0
  in
  let ref_elapsed = ref 0. in
  let run_block =
    match (kind, sched) with
    | "traced", _ -> traced_block
    | "untraced", _ -> untraced_block
    | "reference", Some sched ->
        fun block -> ref_elapsed := !ref_elapsed +. reference_block sched block
    | k, _ -> die "unknown pass %s" k
  in
  let c0 = read_counters () in
  let block_of =
    Array.of_list (chunks (max 1 ((List.length stream + blocks - 1) / blocks)) stream)
  in
  Printf.printf "ready %d\n%!" (Array.length block_of);
  let n = ref 0 in
  (try
     while true do
       let k = int_of_string (String.trim (input_line stdin)) in
       run_block block_of.(k);
       n := !n + List.length block_of.(k);
       Printf.printf "done\n%!"
     done
   with End_of_file -> ());
  let counts = delta c0 (read_counters ()) in
  Option.iter Serve.Scheduler.shutdown sched;
  if serve then Harness.Result_cache.detach ();
  let n = !n in
  let runs = float_of_int n in
  let durations = J.List (List.rev_map (fun d -> J.Float d) !durations) in
  match kind with
  | "untraced" ->
      write_json out
        (J.Obj
           [
             ("requests", J.Int n);
             ("request_s", durations);
             ( "untraced_per_question_s",
               J.Obj
                 (Hashtbl.fold
                    (fun id (c, s) acc -> (id, J.Float (s /. float_of_int c)) :: acc)
                    per_question []) );
           ])
  | "reference" ->
      let tasks = counter "par.pool.tasks" - fst p0 in
      let steals = counter "par.steals" - snd p0 in
      write_json out
        (J.Obj
           [
             ("requests", J.Int n);
             ("server_side_s", J.Float (!server_s /. runs));
             ( "metrics",
               J.Obj
                 [
                   ("scheduler.submit_s", J.Float (!submit_s /. runs));
                   ("par.tasks", J.Float (float_of_int tasks));
                   ("par.steals", J.Float (float_of_int steals));
                   ( "par.busy_share",
                     J.Float (!busy /. (float_of_int pool_jobs *. !ref_elapsed)) );
                 ] );
           ])
  | _ ->
  let per_call name =
    match Hashtbl.find_opt by_name name with
    | Some (_, c, self, _) -> self /. float_of_int c
    | None -> 0.
  in
  (* Inclusive time of a probed call: its self time plus its library children. *)
  let inclusive name =
    match Hashtbl.find_opt by_name name with
    | Some (_, c, _, incl) -> incl /. float_of_int c
    | None -> 0.
  in
  let cnt name = float_of_int (List.assoc name counts) in
  let per ?(v = get) name calls = if get calls = 0. then 0. else v name /. get calls in
  let ratio hits misses =
    let sum = List.fold_left (fun a n -> a +. get n) 0. in
    if sum hits +. sum misses = 0. then 0. else sum hits /. (sum hits +. sum misses)
  in
  let ws kind =
    List.map (fun op -> Printf.sprintf "worldset.%s.cache_%s" op kind)
      [ "union"; "inter"; "diff"; "filter" ]
  in
  let recover_s = List.map fst recover |> List.sort compare in
  let median l = match l with [] -> 0. | _ -> List.nth l (List.length l / 2) in
  let metrics =
    [
      ("petri.parse_s", per_call "petri.parse");
      ("petri.digest_s", per_call "petri.digest");
      ("petri.print_s", per_call "petri.print");
      ("petri.monitor_s", per_call "petri.monitor");
      ("gpn.analyse_s", inclusive "gpn.analyse");
      ("gpn.scan_s", per "gpn.analyse/gpo.scan" "gpn.analyse");
      ("gpn.fire_s", per "gpn.analyse/gpo.fire" "gpn.analyse");
      ("gpn.deviations_scheduled", per "gpo.deviations_scheduled" "gpn.analyse");
      ("gpn.restarts", per "gpo.restarts" "gpn.analyse");
      ("gpn.states", per "gpo.states" "gpn.analyse");
      ("worldset.memo_hit_ratio", ratio (ws "hit") (ws "miss"));
      ("reach.explore_s", inclusive "reach.explore");
      ( "reach.states",
        let runs = get "reach.explore" +. get "stubborn.explore" in
        if runs = 0. then 0. else get "reach.states" /. runs );
      ("stubborn.explore_s", inclusive "stubborn.explore");
      ("stubborn.closures", per "stubborn.closures" "stubborn.explore");
      ("bdd.analyse_s", inclusive "bdd.analyse");
      ("bdd.peak_live_nodes", !bdd_peak);
      ( "bdd.op_cache_hit_ratio",
        ratio [ "bdd.apply.cache_hit"; "bdd.ite.cache_hit" ]
          [ "bdd.apply.cache_miss"; "bdd.ite.cache_miss" ] );
      ("reduce.run_s", per_call "reduce.run");
      ("reduce.ratio", per "reduce.ratio" "reduce.run");
      ("reduce.lift_s", per_call "reduce.lift");
      ("portfolio.run_s", inclusive "portfolio.run");
      ("portfolio.overhead_ratio", per "portfolio.ratio" "portfolio.run");
      ( "portfolio.cancelled_losers",
        per ~v:cnt "portfolio.cancelled_losers" "portfolio.run" );
      ("certify.replay_s", inclusive "certify");
      ("certify.accepted", cnt "certify.accepted");
      ("cache.find_hit_s", per "cache.find_hit_s" "cache.find_hit");
      ("cache.find_miss_s", per "cache.find_miss_s" "cache.find_miss");
      ("cache.hit_ratio", ratio [ "cache.find_hit" ] [ "cache.find_miss" ]);
      ("cache.store_s", per_call "cache.store");
      ( "journal.bytes_per_store",
        if get "cache.stored" = 0. then 0. else get "journal.bytes" /. get "cache.stored" );
      ("cache.recover_s", median recover_s);
      ("cache.recovered", (match recover with (_, r) :: _ -> float_of_int r | [] -> 0.));
      ("report.json_s", per_call "report.json");
      ("protocol.encode_s", per_call "protocol.encode");
      ("protocol.decode_s", per_call "protocol.decode");
      ("protocol.request_bytes", get "protocol.request_bytes" /. runs);
      ("protocol.response_bytes", get "protocol.response_bytes" /. runs);
    ]
  in
  (* The ledger: per span name, self seconds per request. *)
  let rows =
    Hashtbl.fold (fun name (layer, c, t, _) acc -> (layer, name, c, t) :: acc) by_name []
    |> List.sort compare
  in
  write_json out
    (J.Obj
       [
         ("requests", J.Int n);
         ("request_s", durations);
         ( "rows",
           J.List
             (List.map
                (fun (layer, name, c, t) ->
                  J.Obj
                    [
                      ("layer", J.String layer);
                      ("name", J.String name);
                      ("calls", J.Int c);
                      ("self_s_per_request", J.Float (t /. runs));
                    ])
                rows) );
         ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics));
         ( "verdicts",
           J.Obj
             (Hashtbl.fold
                (fun id v acc ->
                  ( id,
                    J.Obj
                      [
                        ("verdict", J.String v.v);
                        ( "certified",
                          match v.certified with None -> J.Null | Some b -> J.Bool b );
                      ] )
                  :: acc)
                verdicts []) );
       ]);
  (* Chrome trace: complete events, one track, request id and parent in
     the args. *)
  let spans = List.rev !kept in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0. in
  let events =
    spans
    |> List.map (fun s ->
           J.Obj
             [
               ("name", J.String s.name);
               ("cat", J.String s.layer);
               ("ph", J.String "X");
               ("ts", J.Float ((s.t0 -. origin) *. 1e6));
               ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
               ("pid", J.Int 1);
               ("tid", J.Int 1);
               ( "args",
                 J.Obj
                   [ ("req", J.Int s.req); ("id", J.Int s.sid);
                     ("parent", J.Int s.parent) ] );
             ])
  in
  write_json trace_out
    (J.Obj [ ("traceEvents", J.List events); ("displayTimeUnit", J.String "ms") ])

let () =
  match Array.to_list Sys.argv with
  | [ _; kind; w; q; s; blocks; dir; pristine; out; trace ] ->
      pass kind w q s (int_of_string blocks) dir
        (if pristine = "-" then None else Some pristine)
        out trace
  | _ ->
      prerr_endline
        "usage: benchtrace traced|untraced|reference WORKLOAD QUESTIONS STREAM \
         BLOCKS WORKDIR PRISTINE|- OUT TRACE";
      exit 2
