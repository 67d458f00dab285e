(** The function-space atlas: verify a whole Boolean-function space.

    Drives every function of an [n]-input space (all 256 for [n = 3],
    a deterministic sample for [n = 4]) through the campaign stack as
    one job per function — certified-first via {!Glc_symbolic}, with
    batched ensembles only for the rows the interval analysis leaves
    undecided — then measures each circuit's worst-case propagation
    delay on the ODE limit and renders the result as a machine-readable
    [SPACE.json] plus a generated [ATLAS.md] of Pareto frontiers
    (PFoBE × delay × gate cost) per NPN class.

    The atlas directory {e is} a campaign directory
    ({!Glc_campaign.Store}): [MANIFEST.json] holds a regular
    {!Glc_campaign.Grid.spec} whose circuit axis is the function names,
    so [glcv campaign status/report] work on it too, kill + resume is
    inherited, and the stored bytes of every function's document are
    identical to what a plain campaign would store. Delay measurements
    ride along in the same store under [delay-<name>] ids. *)

module Grid := Glc_campaign.Grid
module Store := Glc_campaign.Store
module Runner := Glc_campaign.Runner

type config = {
  inputs : int;  (** function arity, 2..4 *)
  sample : int option;
      (** verify only a seeded uniform sample of this many functions
          ({!Fn.sample_codes}); [None] = the whole space. Required
          for [inputs = 4] (65,536 functions). *)
  seed : int;  (** campaign root seed, and the sampling seed *)
  replicates : int;  (** ensemble size for undecided functions *)
  threshold : float;  (** logic threshold, molecules *)
  total_time : float;  (** per-job simulation length *)
  hold_time : float;  (** per-combination hold *)
}

val default_config : config
(** The paper's protocol over the full 3-input space: arity 3, no
    sampling, seed 42, 16 replicates, threshold 15, 10,000/1,000 t.u. *)

val plan : config -> Grid.spec
(** The campaign spec of an atlas run: one job per selected function,
    names in {!Fn.name_of_code} form.
    @raise Invalid_argument on an arity outside 2..4, on [inputs = 4]
    without [sample], or when [total_time] cannot hold all [2^inputs]
    input combinations for [hold_time] each (the GLC011 lint
    condition — atlas jobs run unlinted, so it is enforced here). *)

val prepare : dir:string -> Grid.spec -> (Store.t * Grid.spec * bool, string) result
(** Opens or initialises the atlas directory: a fresh directory is
    created with the given plan as its manifest; an existing one keeps
    {e its own} manifest (this is what makes re-running the same
    command a resume). The boolean is [true] when the stored plan
    differs from the argument — the caller should tell the user their
    flags were ignored. *)

val certified_filter : Grid.spec -> Grid.job -> bool
(** [true] iff the job's circuit certifies fully under the job's
    protocol — the certified-only drain predicate for
    {!Glc_campaign.Resume.run}. Unresolvable circuits pass (the runner
    surfaces the error). *)

(** {2 Propagation delay}

    Worst-case delay on the deterministic (ODE) limit: for every
    adjacent input-combination transition [r -> r+1 mod 2^n] whose
    expected outputs differ, the inputs are held at [r] for one
    hold-time, switched, and the output column scanned for its first
    threshold crossing. Delay docs are stored as [delay-<name>] in the
    atlas store, individually resumable. *)

type delay = {
  d_transitions : int;  (** output-changing transitions *)
  d_measured : int;  (** of which crossed within the timeout *)
  d_worst : float option;  (** max measured delay, t.u.; [None] if none *)
  d_from : int;  (** the worst transition's source combination *)
  d_to : int;
  d_rising : bool;  (** the worst transition's direction *)
}

val measure_delay :
  protocol:Glc_dvasim.Protocol.t -> Glc_gates.Circuit.t -> delay
(** Pure measurement (no store). Deterministic. Compiles the circuit
    once for all its transitions, and stops each transition's
    integration at the first sample past the switch that crosses the
    threshold ({!Glc_ssa.Ode.run_compiled}'s [until]) — the result is
    the one a full-length trace would give.
    @raise Glc_ssa.Compiled.Non_finite_propensity when a kinetic law
    evaluates to NaN or infinity; never a clamped delay. *)

val delay_id : string -> string
(** [delay-<circuit name>]. *)

val delay_doc :
  name:string -> protocol:Glc_dvasim.Protocol.t -> delay -> string
(** The stored [delay-<name>] document: the measurement plus the
    protocol's threshold, settle time and timeout. *)

val delay_coverage : Store.t -> Grid.spec -> int * int
(** [(measured, total)] delay docs over the spec's circuits. *)

(** {2 Running} *)

type summary = {
  a_functions : int;  (** functions in the plan *)
  a_done : int;  (** with a stored verification result *)
  a_verified : int;
  a_failed : int;  (** jobs that raised this run *)
  a_remaining : int;  (** functions still without a result *)
  a_delays : int;  (** delay docs present *)
  a_delays_total : int;  (** delay docs wanted (= done functions) *)
  a_delay_failures : (string * string) list;
      (** functions whose delay measurement raised this run (e.g.
          [Glc_ssa.Compiled.Non_finite_propensity]), in plan order,
          with the exception's message; nothing is stored for them *)
}

val run :
  ?jobs:int ->
  ?limit:int ->
  ?on_progress:(Runner.progress -> unit) ->
  ?metrics:Glc_obs.Metrics.t ->
  ?should_stop:(unit -> bool) ->
  ?certified_only:bool ->
  dir:string ->
  Grid.spec ->
  (summary, string) result
(** {!prepare}, drain the pending functions through
    {!Glc_campaign.Resume.run} (with {!certified_filter} when
    [certified_only]), then measure the delay of every completed
    function that lacks one. Records [space.functions_synthesised],
    [space.functions_verified], [space.delays_measured] and
    [space.delay_failures] counters and the [space.delay_seconds]
    histogram on [metrics].

    The delays run on a pool of [jobs] worker domains (default and [0]:
    {!Glc_engine.Pool.default_jobs}), one task per function. The calling
    domain stores the results in plan order, so the store — and
    {!space_json} — is byte-identical for any [jobs]. A measurement that
    raises is reported in [a_delay_failures] instead of aborting the
    run.

    [should_stop] is the interrupt hook: polled between jobs, and by
    every delay task before it starts (a stopped task stores nothing;
    re-running measures the rest). Delay tasks poll it from worker
    domains, so it must be domain-safe — an [Atomic] read, as glcv's
    signal flag is. *)

(** {2 Reporting} *)

val space_json : Store.t -> Grid.spec -> string
(** The [SPACE.json] document: run parameters, per-class summaries with
    bio flags and Pareto frontiers, one record per function (status,
    provenance, PFoBE, delay, gates, depth, frontier membership), and
    the global frontier. Deterministic bytes — a resumed atlas renders
    byte-identically to an uninterrupted one. *)

val markdown : string -> (string, string) result
(** Renders [ATLAS.md] from the bytes of a [SPACE.json] — the single
    renderer shared by [glcv space report] and
    [tools/gen_models_doc.exe --atlas], so the two can never drift.
    [Error] when the JSON does not parse or lacks the atlas shape. *)
