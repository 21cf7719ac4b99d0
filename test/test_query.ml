(* Harness.Query: the one description of a verification question shared
   by the CLI and the service — model lookup, engine aliases, run,
   certification dispatch and the cache key. *)

module Q = Harness.Query
module RC = Harness.Result_cache

let ok = function
  | Ok x -> x
  | Error msg -> Alcotest.failf "unexpected error: %s" msg
let nsdp2 = Models.Nsdp.make 2
let key q = RC.render (Q.key q)

let test_model_lookup () =
  let name id size = (ok (Q.model id size)).Petri.Net.name in
  Alcotest.(check string) "figure, case-insensitive" "fig2-5" (name "FIG2" 5);
  Alcotest.(check string) "unsized figure" "fig1" (name "fig1" 9);
  Alcotest.(check string) "scheduler" "scheduler-3" (name "scheduler" 3);
  Alcotest.(check string) "random is seeded by the size" "random-7"
    (name "random" 7);
  Alcotest.(check string) "Table 1 family" "nsdp-3" (name "nsdp" 3);
  match Q.model "no-such-model" 4 with
  | Ok _ -> Alcotest.fail "unknown model resolved"
  | Error msg ->
      Alcotest.(check bool) "the error names the model" true
        (Astring_contains.contains "no-such-model" msg)

let test_engine_aliases () =
  let name s = Q.engine_name (ok (Q.engine_of_string s)) in
  List.iter
    (fun (alias, canonical) ->
      Alcotest.(check string) alias canonical (name alias))
    [
      ("full", "full"); ("po", "spin+po"); ("spin+po", "spin+po");
      ("stubborn", "spin+po"); ("smv", "smv"); ("bdd", "smv");
      ("symbolic", "smv"); ("gpo", "gpo"); ("portfolio", "portfolio");
    ];
  Alcotest.(check bool) "unknown engine" true
    (Result.is_error (Q.engine_of_string "bogus"))

let test_make () =
  let q = ok (Q.make nsdp2) in
  Alcotest.(check bool) "deadlock query runs on the net itself" true
    (q.target == nsdp2 && q.property = None);
  Alcotest.(check bool) "jobs 0 means the machine's count" true
    ((ok (Q.make ~jobs:0 nsdp2)).jobs = Par.Pool.default_jobs ());
  let c = ok (Q.make ~cover:[ "gotL.0"; "gotL.1" ] nsdp2) in
  Alcotest.(check int) "a cover query runs on the safety monitor"
    (nsdp2.n_transitions + 2) c.target.n_transitions;
  Alcotest.(check (result reject string)) "unknown cover place"
    (Error "unknown place \"nope\"")
    (Result.map (fun _ -> ()) (Q.make ~cover:[ "gotL.0"; "nope" ] nsdp2))

(* Each result-changing field moves the key; the declared
   result-neutral ones leave it alone. *)
let test_key_classification () =
  let base = ok (Q.make ~witness:true nsdp2) in
  List.iter
    (fun (field, q) ->
      Alcotest.(check bool) (field ^ " changes the key") true (key q <> key base))
    [
      ("net", ok (Q.make ~witness:true (Models.Nsdp.make 3)));
      ("property", ok (Q.make ~cover:[ "gotL.0"; "gotL.1" ] ~witness:true nsdp2));
      ("engine", { base with engine = Q.Single Harness.Engine.Full });
      ("max_states", { base with max_states = 1000 });
      ("witness", { base with witness = false });
      ("gpo_scan", { base with gpo_scan = false });
      ("reduce", { base with reduce = true });
    ];
  List.iter
    (fun (field, q) ->
      Alcotest.(check string) (field ^ " is result-neutral") (key base) (key q))
    [
      ("jobs", { base with jobs = 4 });
      ("deadline_s", { base with deadline_s = Some 1.0 });
      ("mem_mb", { base with mem_mb = Some 64 });
    ]

(* The keys the service rendered before queries were introduced: journals
   written then must keep recovering under the same keys. *)
let test_golden_keys () =
  let golden what q expected = Alcotest.(check string) what expected (key q) in
  golden "deadlock query"
    (ok (Q.make ~witness:true (ok (Q.model "nsdp" 2))))
    "gpo-semantics-1|net=b5028f1012d7b085fc2042613fdcef3f|prop=-|engine=gpo|\
     max_states=5000000|witness=true|scan=true|reduce=false";
  golden "cover query"
    (ok
       (Q.make ~cover:[ "gotL.0"; "gotL.1" ] ~witness:true
          (ok (Q.model "nsdp" 2))))
    "gpo-semantics-1|net=96d4acfa8a8ddfdb533c62f24608a658|\
     prop=cover:gotL.0,gotL.1|engine=gpo|max_states=5000000|witness=true|\
     scan=true|reduce=false";
  golden "reduced portfolio query"
    (ok
       (Q.make ~engine:Q.Portfolio ~reduce:true ~witness:true
          (ok (Q.model "over" 3))))
    "gpo-semantics-1|net=d3638c62657a61034dc0e029f1018cc2|prop=-|\
     engine=portfolio|max_states=5000000|witness=true|scan=true|reduce=true";
  golden "aliased engine on a cover query"
    (ok
       (Q.make ~cover:[ "writing.0"; "writing.1" ]
          ~engine:(ok (Q.engine_of_string "po")) ~witness:true
          (ok (Q.model "rw" 3))))
    "gpo-semantics-1|net=af14bbaf02e0772b07f806a221ef7af9|\
     prop=cover:writing.0,writing.1|engine=spin+po|max_states=5000000|\
     witness=true|scan=true|reduce=false"

let test_certify_dispatch () =
  let certified q =
    match Q.certify q (Q.run q) with
    | Harness.Certify.Certified { trace; _ } -> trace
    | v -> Alcotest.failf "%a" (Harness.Certify.pp q.net) v
  in
  ignore (certified (ok (Q.make ~witness:true nsdp2)) : Petri.Trace.t);
  let cover = ok (Q.make ~cover:[ "gotL.0"; "gotL.1" ] ~witness:true nsdp2) in
  let trace = certified cover in
  Alcotest.(check bool) "the safety witness is projected to the original net"
    true
    (List.for_all (fun t -> t < nsdp2.n_transitions) trace)

(* A violation whose witness does not check out is rejected, never
   certified: the CLI then reports a certification failure instead of a
   violation. *)
let test_bogus_witness_rejected () =
  let q = ok (Q.make ~cover:[ "gotL.0"; "gotL.1" ] ~witness:true nsdp2) in
  let o = { (Q.run q) with Harness.Engine.witness = Some [] } in
  Alcotest.(check bool) "claimed violation" true o.deadlock;
  match Q.certify q o with
  | Harness.Certify.Rejected (Harness.Certify.Not_covering _) -> ()
  | v -> Alcotest.failf "bogus witness: %a" (Harness.Certify.pp nsdp2) v

let test_run_budgets () =
  let raced = ref 0 in
  let run q = Q.run ~on_race:(fun _ -> incr raced) q in
  ignore (run (ok (Q.make nsdp2)) : Harness.Engine.outcome);
  Alcotest.(check int) "a single engine does not race" 0 !raced;
  let o = run (ok (Q.make ~engine:Q.Portfolio nsdp2)) in
  Alcotest.(check int) "the portfolio reports its race" 1 !raced;
  Alcotest.(check bool) "portfolio verdict" true o.deadlock;
  let o =
    run
      (ok
         (Q.make ~engine:(Q.Single Harness.Engine.Full) ~deadline_s:0.0
            (Models.Nsdp.make 10)))
  in
  Alcotest.(check string) "the deadline arms a guard" "deadline"
    (Guard.string_of_stop o.stop);
  let o = run (ok (Q.make ~max_states:10 (Models.Over.make 4))) in
  Alcotest.(check bool) "the state budget is passed on" true
    (Harness.Engine.truncated o);
  let token = Par.Cancel.create () in
  Par.Cancel.cancel token;
  Alcotest.check_raises "cancel reaches a single engine" Par.Cancel.Cancelled
    (fun () ->
      ignore (Q.run ~cancel:token (ok (Q.make nsdp2)) : Harness.Engine.outcome))

let suite =
  [
    Alcotest.test_case "builtin model lookup" `Quick test_model_lookup;
    Alcotest.test_case "engine alias table" `Quick test_engine_aliases;
    Alcotest.test_case "make resolves covers and jobs" `Quick test_make;
    Alcotest.test_case "key classification" `Quick test_key_classification;
    Alcotest.test_case "golden keys" `Quick test_golden_keys;
    Alcotest.test_case "certify dispatches on the property" `Quick
      test_certify_dispatch;
    Alcotest.test_case "bogus witness is rejected" `Quick
      test_bogus_witness_rejected;
    Alcotest.test_case "run arms budgets and cancel" `Quick test_run_budgets;
  ]
