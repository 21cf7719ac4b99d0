(** One verification question, resolved: the single run path.

    A question is a net, a property (deadlock freedom, or a cover
    checked through {!Petri.Safety.monitor}) and an analysis method
    with its budgets.  The CLI builds a [t] from its flags, the service
    scheduler from a decoded job; both then go through {!run},
    {!certify} and {!key}. *)

type engine = Single of Engine.kind | Portfolio

type t = {
  net : Petri.Net.t;  (** The net the question is about. *)
  property : Petri.Safety.property option;  (** [None]: deadlock freedom. *)
  target : Petri.Net.t;
      (** What the engines run on: [net], or its safety monitor when
          [property] is set. *)
  engine : engine;
  max_states : int;
  witness : bool;
  gpo_scan : bool;
      (** GPO configuration (see {!Engine.run}); the portfolio always
          races the hardened one. *)
  reduce : bool;
  jobs : int;  (** Worker domains inside the run, at least 1. *)
  deadline_s : float option;
  mem_mb : int option;
}

val model : string -> int -> (Petri.Net.t, string) result
(** Builtin model by case-insensitive name: [fig1], [fig2] (sized),
    [fig3], [fig5], [fig7], [scheduler], [random] (seeded by the size),
    then the families of {!Experiment.family}. *)

val engine_of_string : string -> (engine, string) result
(** The engine aliases: [full]; [po], [spin+po], [stubborn]; [smv],
    [bdd], [symbolic]; [gpo]; [portfolio]. *)

val engine_name : engine -> string
(** {!Engine.name}, or ["portfolio"]. *)

val make :
  ?cover:string list ->
  ?engine:engine ->
  ?max_states:int ->
  ?witness:bool ->
  ?gpo_scan:bool ->
  ?reduce:bool ->
  ?jobs:int ->
  ?deadline_s:float ->
  ?mem_mb:int ->
  Petri.Net.t ->
  (t, string) result
(** A non-empty [cover] names the places of a safety property (an
    unknown name is an [Error]); the target is then the monitored net.
    Defaults: [gpo], 5_000_000 states, no witness, hardened GPO, no
    reduction, one job ([jobs <= 0]: the machine's recommended count),
    no budgets. *)

val run :
  ?cancel:Par.Cancel.t -> ?on_race:(Portfolio.report -> unit) -> t ->
  Engine.outcome
(** Answer the question on [target].  A single engine runs under a
    {!Guard} armed with the budgets (none without budgets) and polls
    [cancel].  The portfolio arms a guard per entrant, owns its
    cancellation (so [cancel] does not reach it) and hands its report
    to [on_race]. *)

val certify : t -> Engine.outcome -> Certify.verdict
(** {!Certify.deadlock}, or {!Certify.safety} with the property: the
    witness is checked against [net]. *)

val key : t -> Result_cache.key
(** The result-cache key: digest of [target], the cover's place names,
    engine name, [max_states], [witness], [gpo_scan] and [reduce].
    [jobs], [deadline_s] and [mem_mb] are result-neutral: results are
    bit-identical across worker counts, and budget-stopped runs are
    never cached. *)
