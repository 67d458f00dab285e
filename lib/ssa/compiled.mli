(** Models compiled for simulation.

    Species are resolved to dense indices, parameters are folded into the
    kinetic laws, and each law is compiled for evaluation over the state
    vector, so the simulator's inner loop does no name resolution.

    Two evaluation paths exist. {!Shape} (the default) folds each law's
    closed subterms to constants and matches it against the few shapes
    real gate models use — a constant, a first-order degradation, a Hill
    production law with one repressor, one activator or two repressors —
    each evaluated by one arm of a single match; any other law falls
    back to a tree of closures. {!Ast} keeps that closure tree for every
    law as the reference semantics. Both produce bit-identical
    propensities on every state — the QCheck differential properties in
    [test_ssa] hold traces byte-identical between paths — so {!Ast}
    exists only for differential tests and the [bench ssa]
    comparison. *)

module Model := Glc_model.Model

(** How kinetic laws are evaluated. *)
type path =
  | Ast  (** reference: every law is {!Generic} *)
  | Shape  (** default: laws matched against the shapes of {!law} *)

(** A compiled kinetic law. Constants are the folded parameter values;
    [x], [x1], [x2] are state indices of the regulating species. *)
type law =
  | Const of float  (** a law that folds to a constant *)
  | Mass_action of { k : float; x : int }  (** [k * X] *)
  | Repressor of {
      y0 : float;
      b : float;
      ka : float;
      kb : float;
      n : float;
      x : int;
    }  (** [y0 + b * (ka / (kb + X^n))] *)
  | Activator of { y0 : float; b : float; ka : float; n : float; x : int }
      (** [y0 + b * (X^n / (ka + X^n))] *)
  | Repressor2 of {
      y0 : float;
      b : float;
      ka1 : float;
      kb1 : float;
      n1 : float;
      x1 : int;
      ka2 : float;
      kb2 : float;
      n2 : float;
      x2 : int;
    }
      (** [y0 + b * (ka1 / (kb1 + X1^n1) * (ka2 / (kb2 + X2^n2)))] *)
  | Generic of (float array -> float)
      (** any other law: a tree of closures mirroring the math AST *)

type reaction = {
  c_id : string;
  c_deltas : (int * float) list;
      (** net state change: species index, signed amount. Boundary
          species are excluded at compile time (SBML
          [boundaryCondition]: they participate in the kinetics but are
          never changed by firings), so every algorithm that applies
          deltas holds them fixed for free. *)
  c_law : law;
  c_reads : int list;  (** species indices the propensity depends on *)
}

type t = {
  c_model : Model.t;
  c_names : string array;  (** species ids, index = state position *)
  c_initial : float array;
  c_boundary : bool array;
  c_reactions : reaction array;
  c_dependents : int list array;
      (** [c_dependents.(s)] lists reactions whose propensity reads
          species [s] *)
  c_affected : int array array;
      (** [c_affected.(r)] is the dependency closure of reaction [r]:
          every reaction whose propensity reads a species [r] changes,
          sorted, duplicate-free, precomputed once at compile time so
          the simulators' firing loops allocate nothing *)
}

exception
  Non_finite_propensity of {
    nf_model : string;
    nf_reaction : string;
    nf_value : float;  (** the NaN or infinity the law evaluated to *)
    nf_state : (string * float) list;  (** offending state, by species *)
  }
(** Raised (identically on both paths) when a kinetic law evaluates to
    NaN or ±infinity — e.g. [0/0] at an empty state, or [ln] of a
    negative concentration. Before this check the clamp was
    [Float.max 0.], which {e returns NaN for a NaN argument}: the NaN
    flowed into the total propensity, every comparison against it came
    out false, and the run silently ended mid-trajectory with a
    truncated, corrupted trace. A registered [Printexc] printer renders
    the model id, reaction id and offending state. *)

val compile : ?path:path -> ?metrics:Glc_obs.Metrics.t -> Model.t -> t
(** [path] defaults to {!Shape}. With a live [metrics] registry,
    records the [ssa.laws.generic] counter (how many reactions fell
    back to {!Generic}; recorded even when 0) and the
    [ssa.compile_seconds] histogram.
    @raise Invalid_argument if the model fails {!Model.validate}. *)

val eval_law : law -> float array -> float
(** [eval_law law state]: the raw law value — unclamped and unchecked;
    simulators go through {!propensity}/{!propensities_into}/
    {!refresh_affected} instead. Bit-identical to
    {!Glc_model.Math.eval} of the law it was compiled from. *)

val species_index : t -> string -> int
(** @raise Not_found for unknown ids. *)

val propensity : t -> float array -> int -> float
(** [propensity t state j]: reaction [j]'s propensity in [state];
    finite negative values are clamped to zero (a kinetic law may dip
    below zero transiently in ill-parameterised models).
    @raise Non_finite_propensity on NaN or infinity. *)

val propensities : t -> float array -> float array
(** All reaction propensities in the given state, clamped as
    {!propensity}.
    @raise Non_finite_propensity on NaN or infinity. *)

val propensities_into : t -> float array -> float array -> unit
(** [propensities_into t state a] is {!propensities} writing into the
    caller's buffer [a] — the simulator's inner loop reuses one buffer
    per trajectory instead of allocating every step, which keeps minor
    GCs (stop-the-world under domains) off the multicore hot path.
    @raise Invalid_argument if [a] is not one slot per reaction.
    @raise Non_finite_propensity on NaN or infinity. *)

val inert_reactions : t -> string list
(** Ids of reactions whose firing changes no state — every reactant and
    product is a boundary species, so the compiled delta list is empty.
    Such reactions still consume SSA steps whenever their propensity is
    positive; the linter flags them ([GLC004]). In declaration order. *)

val affected_reactions : t -> int -> int array
(** Reactions whose propensity may change when the given reaction fires
    (including itself if it reads a species it writes). Returns the
    precomputed [c_affected] row — O(1), and the caller must not
    mutate it. *)

val refresh_affected : t -> float array -> int -> float array -> int
(** [refresh_affected t state ri a] re-evaluates into [a] exactly the
    propensities affected by a firing of reaction [ri] (the
    [c_affected.(ri)] row) and returns how many were evaluated. If [a]
    held fresh propensities for the pre-firing state, it holds fresh
    propensities for [state] afterwards — the sparse invariant the
    direct-method hot loop relies on.
    @raise Non_finite_propensity on NaN or infinity. *)
