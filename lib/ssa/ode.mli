(** Deterministic (ODE) simulation of kinetic models.

    D-VASim offers deterministic simulation next to the SSA; the paper
    motivates the SSA by the small molecule counts in a cell, and the
    ablation benchmarks here use the ODE limit to separate what the
    analysis algorithm owes to noise handling from what it owes to logic
    reconstruction.

    Each kinetic law is read as a continuous flux (the thermodynamic
    limit of the propensity); species follow
    [dx/dt = sum over reactions of stoichiometry * flux]. Integration is
    classic fixed-step fourth-order Runge–Kutta, split at event times so
    the virtual-lab input steps stay sharp. States are clamped at zero.

    There is exactly one integrator: the allocation-free step behind
    {!run_compiled} and {!steady_state}. Its arithmetic follows the
    textbook formula term by term, so traces are bit-identical to the
    allocating reference step the tests keep as an oracle. *)

module Model := Glc_model.Model

type config = {
  t0 : float;
  t_end : float;
  dt : float;  (** trace sampling step *)
  step : float;  (** RK4 integration step; must not exceed [dt] *)
}

val config : ?t0:float -> ?dt:float -> ?step:float -> t_end:float -> unit
  -> config
(** Defaults: [t0 = 0.], [dt = 1.], [step = 0.1].
    @raise Invalid_argument if [step <= 0], [step > dt] or
    [t_end < t0]. *)

val run : ?events:Events.schedule -> config -> Model.t -> Trace.t
(** {!run_compiled} of the compiled model. *)

val run_compiled :
  ?events:Events.schedule ->
  ?until:(float -> float array -> bool) ->
  ?record:string array ->
  config ->
  Compiled.t ->
  Trace.t
(** Integrates from [t0] to [t_end] and returns the trace sampled every
    [dt]. Each run allocates one workspace (stage derivatives, stage
    state, propensity buffer, flattened stoichiometry) up front; an RK4
    step then allocates nothing, and compiling once and calling this
    per stimulus is the cheap way to run many stimuli of one model.

    [record] restricts the trace to the given species, in that order
    (default: every species, in state order). The integration is the
    same either way; a caller that reads one column saves allocating
    the others.

    [until], when given, is evaluated on exactly the samples the trace
    records: [until (Trace.time tr k) sample_k] for each grid point [k],
    in order, with [sample_k] the recorded values in trace column order
    (read-only, reused between calls). The run stops at the first sample
    where it holds, and the returned trace is the prefix of the full
    trace ending at that sample — every recorded value is bit-identical
    to the full run's. Without [until], or if it never holds, the full
    trace.
    @raise Not_found if [record] names an unknown species.
    @raise Compiled.Non_finite_propensity if a law evaluates to NaN or
    infinity. *)

val steady_state :
  ?max_time:float -> ?tolerance:float -> Model.t ->
  (string * float) list
(** Integrates until the largest relative change per unit time falls
    below [tolerance] (default [1e-9], [max_time] 100,000) and returns
    the settled amounts — a DC operating-point analysis. Shares
    {!run_compiled}'s allocation-free step. *)
