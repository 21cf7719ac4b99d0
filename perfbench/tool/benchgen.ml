(* benchgen — inputs and expected verdicts of the verdict benchmark.

     benchgen gen WORKLOAD SEED OUT.json
       Generate a workload's seeded questions.  The program under test
       only ever sees the net texts and job arguments written here.

     benchgen fresh SEED CHUNK COUNT OUT.json
       COUNT more of serve-hot's fresh nets, each asked once.  Chunk
       CHUNK of a seed is always the same, so a run draws as many
       chunks as its speed needs and stays reproducible.

     benchgen oracle IN.json OUT.json
       Expected verdicts for questions whose answer is not known from
       the model family: explicit exploration of the (monitored) net,
       cross-checked with the stubborn-set explorer and, where it
       finishes within its budget, the symbolic engine.  Any
       disagreement or truncation is an error (exit 3). *)

open Benchcommon

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)

let family_net fam n =
  match fam with
  | "nsdp" -> Models.Nsdp.make n
  | "asat" -> Models.Asat.make n
  | "over" -> Models.Over.make n
  | "rw" -> Models.Rw.make n
  | "fig2" -> Models.Figures.fig2 n
  | "scheduler" -> Models.Scheduler.make n
  | f -> die "unknown family %s" f

(* The known answers: nsdp and fig2 deadlock, the others do not. *)
let family_verdict fam =
  if fam = "nsdp" || fam = "fig2" then "violated" else "holds"

type gen = {
  rng : Random.State.t;
  prefix : string;  (* of every net and question id *)
  mutable nets : (string * string) list;  (* id, text; newest first *)
  mutable questions : question list;  (* newest first *)
  mutable asked : int;
  net_ids : (string, unit) Hashtbl.t;
}

let add_net g id net =
  if not (Hashtbl.mem g.net_ids id) then begin
    Hashtbl.add g.net_ids id ();
    g.nets <- (id, Petri.Parser.to_string net) :: g.nets
  end;
  id

let family g (fam, n) = add_net g (Printf.sprintf "%s-%d" fam n) (family_net fam n)

let range g (lo, hi) = lo + Random.State.int g.rng (hi - lo + 1)

let random_net g ~components ~states ~transitions ~sync =
  let spec =
    {
      Models.Random_net.components = range g components;
      states_per_component = range g states;
      transitions = range g transitions;
      max_sync = range g sync;
    }
  in
  let seed = Random.State.bits g.rng in
  add_net g (Printf.sprintf "%srandom-%d" g.prefix seed)
    (Models.Random_net.generate ~spec seed)

let net_of_id g id =
  Petri.Parser.of_string ~name:"net" (List.assoc id g.nets)

(* Two distinct places of the net, as a cover. *)
let pick_cover g id =
  let net = net_of_id g id in
  let n = net.Petri.Net.n_places in
  let a = Random.State.int g.rng n in
  let b = (a + 1 + Random.State.int g.rng (n - 1)) mod n in
  [ Petri.Net.place_name net a; Petri.Net.place_name net b ]

let question g ?(cover = []) ?(engine = "gpo") ?(reduce = false) ?expect net =
  let q =
    {
      id = Printf.sprintf "%sq%d" g.prefix g.asked;
      net;
      cover;
      engine;
      reduce;
      expect;
    }
  in
  g.questions <- q :: g.questions;
  g.asked <- g.asked + 1;
  q.id

let family_question g ((fam, _) as inst) =
  question g ~expect:(family_verdict fam) (family g inst)

(* Small instances whose monitored nets every engine and the oracle
   decide quickly whatever two places the cover names. *)
let cover_instances =
  [ ("nsdp", 4); ("over", 3); ("rw", 6); ("fig2", 5); ("scheduler", 3);
    ("scheduler", 5) ]

let cover_question g ?engine ?reduce net =
  question g ~cover:(pick_cover g net) ?engine ?reduce net

(* Every workload keeps the same shape for every seed: the same family
   instances, the same number of covers and random nets in the same
   slots.  The seed picks the covered places, the random nets and the
   order, so two seeds ask different questions of the same difficulty
   profile and their figures are comparable. *)

(* cold-gpo: one GPO question per process.  Family instances graded in
   size, up to where the hardened deviation scan dominates. *)
let gen_cold g =
  let fams =
    [ ("nsdp", 4); ("nsdp", 5); ("nsdp", 6); ("nsdp", 7); ("nsdp", 8);
      ("nsdp", 9); ("nsdp", 10); ("asat", 4); ("over", 3); ("over", 4);
      ("over", 5); ("rw", 6); ("rw", 9); ("rw", 12); ("rw", 15); ("fig2", 3);
      ("fig2", 5); ("fig2", 7); ("fig2", 10); ("fig2", 12); ("scheduler", 3);
      ("scheduler", 5); ("scheduler", 8); ("scheduler", 12) ]
  in
  let pool = List.map (family_question g) fams in
  let covers =
    List.map (fun inst -> cover_question g (family g inst)) cover_instances
  in
  let randoms =
    List.init 8 (fun i ->
        let net =
          random_net g ~components:(4, 5) ~states:(3, 4) ~transitions:(10, 14)
            ~sync:(2, 3)
        in
        if i < 2 then cover_question g net else question g net)
  in
  `Pool (pool @ covers @ randoms)

let fresh_questions g count =
  List.init count (fun i ->
      let net =
        random_net g ~components:(2, 3) ~states:(2, 3) ~transitions:(4, 8)
          ~sync:(1, 2)
      in
      if i mod 5 = 0 then cover_question g net else question g net)

(* serve-hot: a pool of nets of varied text size, all pre-seeded into
   the daemon's journal, plus a stock of fresh random nets that miss;
   a run that asks for more draws chunks from [gen_fresh]. *)
let gen_hot g =
  let fams =
    [ ("nsdp", 2); ("nsdp", 4); ("nsdp", 6); ("nsdp", 8); ("rw", 3); ("rw", 6);
      ("rw", 9); ("rw", 12); ("over", 2); ("over", 3); ("over", 4);
      ("fig2", 3); ("fig2", 5); ("fig2", 10); ("scheduler", 3);
      ("scheduler", 5); ("scheduler", 8); ("scheduler", 12); ("asat", 2);
      ("asat", 4) ]
  in
  let pool = List.map (family_question g) fams in
  let covers =
    List.map (fun inst -> cover_question g (family g inst)) cover_instances
  in
  let randoms =
    List.init 16 (fun i ->
        let net =
          random_net g ~components:(2, 6) ~states:(2, 4) ~transitions:(4, 16)
            ~sync:(1, 3)
        in
        if i mod 4 = 0 then cover_question g net else question g net)
  in
  `Hot (pool @ covers @ randoms, fresh_questions g 12000)

(* serve-mixed: batches of 2-4 distinct questions on one net, each with
   its own engine/reduce pair, so every job misses the cache.  Every
   fourth batch asks a cover query of a family instance (in rotation),
   the others ask about a fresh random net, one in five with a cover.
   Engine/reduce pairs are dealt from a shuffled deck of all ten, so
   each appears equally often. *)
let gen_mixed g =
  let combos =
    List.concat_map
      (fun e -> [ (e, false); (e, true) ])
      [ "full"; "po"; "smv"; "gpo"; "portfolio" ]
  in
  let fams = cover_instances @ [ ("over", 4) ] in
  let deck = ref [] in
  let rec deal k acc =
    if k = 0 then List.rev acc
    else begin
      if !deck = [] then
        deck :=
          List.map (fun c -> (Random.State.bits g.rng, c)) combos
          |> List.sort compare |> List.map snd;
      match List.partition (fun c -> List.mem c acc) !deck with
      | dups, c :: rest ->
          deck := dups @ rest;
          deal (k - 1) (c :: acc)
      | _, [] ->
          deck := [];
          deal k acc
    end
  in
  let covered = Hashtbl.create 64 in
  let batch i =
    let net, cover =
      let random () =
        let net =
          random_net g ~components:(4, 5) ~states:(3, 4) ~transitions:(10, 16)
            ~sync:(2, 3)
        in
        (net, if i mod 5 = 2 then pick_cover g net else [])
      in
      if i mod 4 = 0 then
        let net = family g (List.nth fams (i / 4 mod List.length fams)) in
        (* A cover this instance has not been asked yet; a random net
           once its small set of place pairs runs short. *)
        let rec fresh_cover tries =
          let c = pick_cover g net in
          if not (Hashtbl.mem covered (net, c)) then begin
            Hashtbl.add covered (net, c) ();
            (net, c)
          end
          else if tries = 0 then random ()
          else fresh_cover (tries - 1)
        in
        fresh_cover 50
      else random ()
    in
    List.map
      (fun (engine, reduce) -> question g ~cover ~engine ~reduce net)
      (deal (2 + (i mod 3)) [])
  in
  `Batches (List.init 4000 batch)

let workload_tag = function
  | "cold-gpo" -> 1
  | "serve-hot" -> 2
  | "serve-mixed" -> 3
  | w -> die "unknown workload %s" w

let new_gen rng prefix =
  { rng; prefix; nets = []; questions = []; asked = 0; net_ids = Hashtbl.create 64 }

let write_doc out g workload seed ~pool ~fresh ~batches =
  let ids l = strings l in
  write_json out
    (J.Obj
       [
         ("workload", J.String workload);
         ("seed", J.Int seed);
         ( "nets",
           J.List
             (List.rev_map
                (fun (id, text) ->
                  J.Obj [ ("id", J.String id); ("text", J.String text) ])
                g.nets) );
         ("questions", J.List (List.rev_map json_of_question g.questions));
         ("pool", ids pool);
         ("fresh", ids fresh);
         ("batches", J.List (List.map ids batches));
       ])

let gen workload seed out =
  let g = new_gen (Random.State.make [| seed; workload_tag workload |]) "" in
  let shape =
    match workload with
    | "cold-gpo" -> gen_cold g
    | "serve-hot" -> gen_hot g
    | _ -> gen_mixed g
  in
  let pool, fresh, batches =
    match shape with
    | `Pool p -> (p, [], [])
    | `Hot (p, f) -> (p, f, [])
    | `Batches b -> ([], [], b)
  in
  write_doc out g workload seed ~pool ~fresh ~batches

(* Ids of chunk k start with "f<k>-", so no chunk shares one with
   another or with [gen]'s stock. *)
let gen_fresh seed chunk count out =
  let g =
    new_gen
      (Random.State.make [| seed; workload_tag "serve-hot"; chunk |])
      (Printf.sprintf "f%d-" chunk)
  in
  let fresh = fresh_questions g count in
  write_doc out g "serve-hot" seed ~pool:[] ~fresh ~batches:[]

(* ------------------------------------------------------------------ *)
(* oracle                                                              *)

let oracle_one text cover =
  let net = Petri.Parser.of_string ~name:"net" text in
  let target, _ = target_of net cover in
  let full = Petri.Reachability.explore ~max_states:20_000 target in
  if Petri.Reachability.truncated full then Error "explicit exploration truncated"
  else
    let violated = full.Petri.Reachability.deadlock_count > 0 in
    let stub = Petri.Stubborn.explore ~max_states:20_000 target in
    if Petri.Reachability.truncated stub then Error "stubborn exploration truncated"
    else if stub.Petri.Reachability.deadlock_count > 0 <> violated then
      Error "explicit and stubborn explorers disagree"
    else
      let smv =
        Guard.with_guard ~deadline_s:2.0 (fun g ->
            Bddkit.Symbolic.analyse ~guard:g target)
      in
      if
        (not (Bddkit.Symbolic.truncated smv))
        && smv.Bddkit.Symbolic.deadlock <> None <> violated
      then Error "explicit and symbolic engines disagree"
      else Ok (if violated then "violated" else "holds")

let oracle inp out =
  let checks = to_list (read_json inp) in
  let answers =
    List.map
      (fun c ->
        let key = to_str (mem "key" c) in
        match
          oracle_one (to_str (mem "text" c)) (List.map to_str (to_list (mem "cover" c)))
        with
        | Ok v -> (key, J.String v)
        | Error msg -> die "oracle %s: %s" key msg)
      checks
  in
  write_json out (J.Obj answers)

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; w; seed; out ] -> gen w (int_of_string seed) out
  | [ _; "fresh"; seed; chunk; count; out ] ->
      gen_fresh (int_of_string seed) (int_of_string chunk) (int_of_string count) out
  | [ _; "oracle"; inp; out ] -> oracle inp out
  | _ ->
      prerr_endline "usage: benchgen gen WORKLOAD SEED OUT | fresh SEED CHUNK COUNT OUT | oracle IN OUT";
      exit 2
