(** Models compiled for simulation.

    Species are resolved to dense indices, parameters are folded into the
    kinetic laws, and each law is compiled for evaluation over the state
    vector, so the simulator's inner loop does no name resolution.

    Two evaluation paths exist. {!Ir} (the default) compiles each law
    once into a flat instruction array over a register file (constant
    folding, fused Hill superinstructions, tight dispatch loop — see
    {!module:Ir}); {!Ast} keeps the original tree-of-closures evaluator
    as the reference semantics. Both produce bit-identical propensities
    on every state — the QCheck differential property in [test_ssa]
    holds traces byte-identical between paths — so {!Ast} exists only
    for differential tests and the [bench ssa] comparison. *)

module Model := Glc_model.Model

(** How kinetic laws are evaluated. *)
type path =
  | Ast  (** reference: a tree of closures mirroring the math AST *)
  | Ir  (** default: flat register IR, constant-folded (see {!module:Ir}) *)

type reaction = {
  c_id : string;
  c_deltas : (int * float) list;
      (** net state change: species index, signed amount. Boundary
          species are excluded at compile time (SBML
          [boundaryCondition]: they participate in the kinetics but are
          never changed by firings), so every algorithm that applies
          deltas holds them fixed for free. *)
  c_propensity : float array -> float;
      (** raw law evaluation — unclamped and unchecked; simulators go
          through {!propensity}/{!propensities_into}/{!refresh_affected}
          instead *)
  c_expr : Ir.expr option;
      (** the compiled IR program ([None] on the {!Ast} path); the hot
          entry points run it directly against a per-call scratch
          register file instead of going through the [c_propensity]
          closure *)
  c_reads : int list;  (** species indices the propensity depends on *)
  c_cost : int;
      (** IR instructions executed per evaluation; [0] on the {!Ast}
          path *)
}

type ir_stats = {
  ir_instrs : int;  (** instructions across all reaction programs *)
  ir_regs : int;  (** largest register file any program needs *)
  ir_const_folds : int;
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
  c_path : path;
  c_regs : int;
      (** largest register file any reaction's program needs — the size
          of the scratch the hot entry points fetch once per call *)
  c_eval_cost : int;
      (** IR instructions per full propensity refresh (sum of
          [c_cost]); [0] on the {!Ast} path *)
  c_affected_cost : int array;
      (** [c_affected_cost.(r)]: IR instructions per sparse refresh
          after reaction [r] fires *)
  c_ir : ir_stats option;  (** compile-time IR statistics, [Ir] path only *)
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
(** [path] defaults to {!Ir}. With a live [metrics] registry and the
    IR path, records the [ssa.ir.programs],
    [ssa.ir.instructions_compiled] and [ssa.ir.const_folds] counters
    and the [ssa.ir.compile_seconds] histogram.
    @raise Invalid_argument if the model fails {!Model.validate}. *)

val species_index : t -> string -> int
(** @raise Not_found for unknown ids. *)

val make_regs : t -> float array
(** A fresh scratch register file sized for every program in [t] —
    what the [~regs] variants below expect. A simulator allocates one
    per trajectory and reuses it across every evaluation of the run,
    instead of paying a domain-local-storage fetch per refresh. *)

val propensity : t -> float array -> int -> float
(** [propensity t state j]: reaction [j]'s propensity in [state];
    finite negative values are clamped to zero (a kinetic law may dip
    below zero transiently in ill-parameterised models).
    @raise Non_finite_propensity on NaN or infinity. *)

val propensity_in : t -> regs:float array -> float array -> int -> float
(** {!propensity} evaluating against the caller's scratch from
    {!make_regs}. *)

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

val propensities_into_in :
  t -> regs:float array -> float array -> float array -> unit
(** {!propensities_into} evaluating against the caller's scratch from
    {!make_regs}. *)

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

val refresh_affected_in :
  t -> regs:float array -> float array -> int -> float array -> int
(** {!refresh_affected} evaluating against the caller's scratch from
    {!make_regs} — the form the simulators' firing loops use, so the
    domain-local-storage fetch is paid once per run, not per firing. *)

val eval_cost : t -> int
(** IR instructions executed by one full propensity refresh; [0] on the
    {!Ast} path. O(1), precomputed. *)

val affected_cost : t -> int -> int
(** IR instructions executed by one sparse refresh after the given
    reaction fires; [0] on the {!Ast} path. O(1), precomputed. *)

val ir_stats : t -> ir_stats option
(** Compile-time IR statistics ([None] on the {!Ast} path). *)
