type engine = Single of Engine.kind | Portfolio

type t = {
  net : Petri.Net.t;
  property : Petri.Safety.property option;
  target : Petri.Net.t;
  engine : engine;
  max_states : int;
  witness : bool;
  gpo_scan : bool;
  reduce : bool;
  jobs : int;
  deadline_s : float option;
  mem_mb : int option;
}

let model id size =
  match String.lowercase_ascii id with
  | "fig1" -> Ok Models.Figures.fig1
  | "fig2" -> Ok (Models.Figures.fig2 size)
  | "fig3" -> Ok Models.Figures.fig3
  | "fig5" -> Ok Models.Figures.fig5
  | "fig7" -> Ok Models.Figures.fig7
  | "scheduler" -> Ok (Models.Scheduler.make size)
  | "random" -> Ok (Models.Random_net.generate size)
  | lid -> (
      match Experiment.family lid with
      | fam -> Ok (fam.make size)
      | exception Not_found ->
          Error
            (Printf.sprintf
               "unknown model %S (expected nsdp, asat, over, rw, scheduler, \
                random, or a figure)" id))

let engine_of_string = function
  | "full" -> Ok (Single Engine.Full)
  | "po" | "spin+po" | "stubborn" -> Ok (Single Engine.Stubborn)
  | "smv" | "bdd" | "symbolic" -> Ok (Single Engine.Symbolic)
  | "gpo" -> Ok (Single Engine.Gpo)
  | "portfolio" -> Ok Portfolio
  | s -> Error (Printf.sprintf "unknown engine %S" s)

let engine_name = function Single k -> Engine.name k | Portfolio -> "portfolio"

let property_of_cover net = function
  | [] -> Ok None
  | names -> (
      let known n = Array.mem n net.Petri.Net.place_names in
      match List.find_opt (fun n -> not (known n)) names with
      | Some unknown -> Error (Printf.sprintf "unknown place %S" unknown)
      | None ->
          let never_all = List.map (Petri.Net.place_index net) names in
          Ok (Some { Petri.Safety.name = "prop"; never_all }))

let make ?(cover = []) ?(engine = Single Engine.Gpo) ?(max_states = 5_000_000)
    ?(witness = false) ?(gpo_scan = true) ?(reduce = false) ?(jobs = 1)
    ?deadline_s ?mem_mb net =
  Result.map
    (fun property ->
      let target =
        Option.fold ~none:net ~some:(Petri.Safety.monitor net) property
      in
      { net; property; target; engine; max_states; witness; gpo_scan; reduce;
        jobs = (if jobs <= 0 then Par.Pool.default_jobs () else jobs);
        deadline_s; mem_mb })
    (property_of_cover net cover)

let run ?cancel ?on_race q =
  match q.engine with
  | Single kind -> (
      let body guard =
        Engine.run ~max_states:q.max_states ~witness:q.witness
          ~gpo_scan:q.gpo_scan ~reduce:q.reduce ~jobs:q.jobs ?cancel ?guard
          kind q.target
      in
      match (q.deadline_s, q.mem_mb) with
      | None, None -> body None
      | deadline_s, mem_mb ->
          Guard.with_guard ?deadline_s ?mem_mb (fun g -> body (Some g)))
  | Portfolio ->
      (* The portfolio races for the verdict itself, so its GPO entrant
         always runs hardened: the paper configuration can miss
         deadlocks. *)
      let r =
        Portfolio.run ~max_states:q.max_states ~witness:q.witness
          ~gpo_scan:true ~reduce:q.reduce ~jobs:q.jobs ?deadline_s:q.deadline_s
          ?mem_mb:q.mem_mb q.target
      in
      Option.iter (fun f -> f r) on_race;
      r.Portfolio.outcome

let certify q outcome =
  match q.property with
  | None -> Certify.deadlock q.net outcome
  | Some p -> Certify.safety q.net p outcome

(* Every field is named, none elided: a new field is a build error here
   until it is either fed to the key or declared result-neutral. *)
let key { net; property; target; engine; max_states; witness; gpo_scan;
          reduce; jobs = _; deadline_s = _; mem_mb = _ } =
  let cover (p : Petri.Safety.property) =
    "cover:"
    ^ String.concat ","
        (List.map (fun i -> net.Petri.Net.place_names.(i)) p.never_all)
  in
  Result_cache.key
    ?property:(Option.map cover property)
    ~digest:(Petri.Net.digest target) ~engine:(engine_name engine) ~max_states
    ~witness ~gpo_scan ~reduce ()
