(** Stochastic simulation of kinetic models.

    Two exact SSA variants are provided — Gillespie's direct method
    (Gillespie 1977, the algorithm cited by the paper) and the
    Gibson–Bruck next-reaction method — plus explicit tau-leaping
    (Gillespie 2001 with the step selection of Cao et al. 2006) for an
    accuracy/speed trade-off. All interpret each kinetic law as the
    reaction's propensity function, support timed interventions on
    species (the virtual-lab input stimuli), and record a uniformly
    sampled {!Trace.t}. *)

module Model := Glc_model.Model

type algorithm =
  | Direct
      (** Gillespie's direct method with sparse propensity updates:
          after each firing only the reactions in the fired reaction's
          compile-time dependency closure are re-evaluated. Trajectories
          are byte-identical to {!Direct_full_recompute} for the same
          seed. *)
  | Direct_full_recompute
      (** The direct method re-evaluating every propensity at every
          step. Kept as the reference implementation for equivalence
          tests and the [bench ssa] harness; prefer {!Direct}. *)
  | Next_reaction
  | Tau_leaping of { epsilon : float }
      (** error-control parameter of the step selection, typically
          0.01–0.05; steps that would be finer than a few SSA steps fall
          back to exact direct-method stepping *)

type config = {
  t0 : float;  (** start time *)
  t_end : float;  (** stop time *)
  dt : float;  (** trace sampling step *)
  seed : int;  (** RNG seed; equal seeds reproduce traces exactly *)
  algorithm : algorithm;
}

val config :
  ?t0:float -> ?dt:float -> ?seed:int -> ?algorithm:algorithm ->
  t_end:float -> unit -> config
(** Defaults: [t0 = 0.], [dt = 1.], [seed = 42], [algorithm = Direct]. *)

type stats = {
  reactions_fired : int;
  events_applied : int;
  final_state : (string * float) list;
}

val run :
  ?events:Events.schedule -> ?metrics:Glc_obs.Metrics.t -> config ->
  Model.t -> Trace.t
(** Compiles and simulates the model. Events clamp species to new values
    at their scheduled times; reaction firings never drive a count below
    zero (propensities are clamped at zero).

    When [metrics] is a live registry (default {!Glc_obs.Metrics.noop}),
    each run flushes per-run totals into it once, after the simulation:
    counters [ssa.runs.<algo>], [ssa.reactions_fired],
    [ssa.events_applied], [ssa.propensity_evals], [ssa.heap_updates],
    [ssa.recorder_observes], [ssa.trace_samples] (all deterministic for
    a fixed seed) and the wall-time histogram [ssa.run_seconds.<algo>],
    where [<algo>] is [direct], [direct_full], [next_reaction] or
    [tau_leaping]. The
    inner loops accumulate in plain local fields, so instrumentation
    adds no atomic traffic to the hot path. *)

val run_with_stats :
  ?events:Events.schedule -> ?metrics:Glc_obs.Metrics.t -> config ->
  Model.t -> Trace.t * stats

val run_compiled :
  ?events:Events.schedule -> ?metrics:Glc_obs.Metrics.t -> config ->
  Compiled.t -> Trace.t * stats
(** Reuses an already compiled model (the benchmark harness simulates the
    same circuit many times). *)

val run_compiled_rng :
  ?events:Events.schedule -> ?metrics:Glc_obs.Metrics.t -> rng:Rng.t ->
  config -> Compiled.t -> Trace.t * stats
(** Like {!run_compiled} but draws randomness from a caller-supplied
    generator instead of seeding a fresh one from [config.seed] (which is
    ignored). The ensemble engine uses this to give every replicate its
    own {!Rng.split}-derived stream while sharing one compiled model. *)

val apply_events_at :
  Compiled.t -> float array -> Events.schedule ->
  (float * int * Events.schedule) option
(** [apply_events_at c state schedule] clamps [state] to every event
    scheduled at the schedule's earliest time (negative amounts become
    0) and returns that time, the number of events applied and the
    rest of the schedule; [None] on an empty schedule. Shared by every
    simulator here and by {!Ode}.
    @raise Invalid_argument for an event on a species [c] does not
    have. *)

val catch_up :
  Compiled.t -> float array -> t0:float -> Events.schedule ->
  int * Events.schedule
(** [catch_up c state ~t0 schedule] applies, in order, every event at
    or before [t0] — they initialise the state — and returns how many
    it applied and the rest of the schedule. *)

(**/**)

val select : float array -> float -> int
(** [select a target] is the index of the reaction the direct method
    fires for cumulative-propensity target [target ∈ \[0, sum a)]: the
    first index [i] with positive propensity whose running cumulative
    sum exceeds [target]. Zero-propensity reactions are never selected,
    even when floating-point rounding leaves the cumulative sum below
    [target]; the draw then falls back to the last positive-propensity
    index. Raises [Invalid_argument] if no propensity is positive.
    Exposed for tests. *)

(**/**)
