(** Flat propensity IR: kinetic laws compiled to packed instruction
    arrays.

    The SSA hot path evaluates kinetic laws millions of times per run;
    walking the {!Glc_model.Math.t} AST (or a tree of closures built
    from it) costs an indirect call and a cache miss per node.  This
    module compiles a law once into a flat array of integer-packed
    three-address instructions, evaluated by a tight match-dispatch
    loop that allocates nothing — the trace-IR interpreter idiom.

    Each instruction is one tagged 63-bit integer: a 7-bit opcode and
    three 14-bit operand fields.  Every binary arithmetic opcode comes
    in one variant per operand-source combination — register, constant
    pool, or state vector — so a mass-action law like [gamma * X] is a
    {e single} instruction reading the pool and the state directly,
    with no separate const/load traffic, and a folded Hill response is
    five.

    For the Hill response shapes every imported gate's production law
    reduces to, the instruction selector emits fused superinstructions
    (the whole [ymin + (ymax-ymin) * k^n/(k^n + x^n)] response is one
    opcode: one dispatch, one [pow]).  A superinstruction performs the
    exact IEEE operation sequence of the subtree it replaces, so fusion
    removes dispatch without perturbing a single bit.

    Beyond instruction selection, the compiler performs one
    semantics-preserving rewrite only: {b constant folding} of
    operations whose operands are all constants, computed with exactly
    the IEEE operation the evaluator would use at run time (no
    algebraic identities — [0 * x] is not folded, NaN and signed zeros
    are preserved bit for bit).

    Folding precomputes the very float the AST evaluator would
    produce, so IR evaluation is bit-identical to
    {!Glc_model.Math.eval} on every input, including NaN and infinity
    propagation.  The differential QCheck property in [test_ssa]
    enforces this. *)

(** Where an instruction operand comes from. *)
type operand =
  | Reg of int  (** an earlier instruction's result *)
  | Pool of int  (** the program's constant pool *)
  | State of int  (** the simulation state vector *)

type prog = {
  p_code : int array;  (** packed instructions, executed in order *)
  p_pool : float array;  (** constants referenced by [Pool] operands *)
  p_regs : int;  (** register-file slots required (= code length) *)
}
(** A compiled program.  Registers are single-assignment: instruction
    [k] writes register [k] and reads only lower-numbered registers,
    so any scratch array of at least [p_regs] slots may be reused
    across evaluations (and across programs). *)

type expr = { e_prog : prog; e_result : operand }
(** One compiled expression: the program to run (shared when several
    expressions were compiled by one builder) and where its value
    lands.  A law that folds to a constant, or is a bare species
    reference, compiles to a [Pool]/[State] result and an empty
    program. *)

type stats = {
  s_instrs : int;  (** instructions emitted *)
  s_const_folds : int;  (** operations evaluated at compile time *)
}

(** Accumulates several expressions into one shared program. *)
type builder

val builder : resolve:(string -> int option) -> unit -> builder
(** [resolve id] maps an identifier to its state-vector slot.
    Identifiers it does not resolve raise [Invalid_argument] at compile
    time — the model validator rejects them earlier, so reaching one
    here is a compiler bug, not user error. *)

val push : builder -> Glc_model.Math.t -> operand
(** Compile one expression into the builder's program, returning the
    operand that will hold its value.  Instructions and constants are
    appended after everything previously pushed; a repeated subterm is
    compiled again.
    @raise Invalid_argument if the program outgrows the 14-bit operand
    encoding (16384 registers, pool slots or species — far beyond any
    real model). *)

val finish : builder -> prog * stats
(** Seal the builder.  The builder must not be used afterwards. *)

val compile : resolve:(string -> int option) -> Glc_model.Math.t -> expr * stats
(** One-shot [builder] / [push] / [finish] for a single expression. *)

val exec : prog -> regs:float array -> float array -> unit
(** [exec p ~regs state] runs the program over [state], leaving each
    instruction's value in its register.
    @raise Invalid_argument if [regs] is shorter than [p.p_regs]. *)

val eval : expr -> regs:float array -> float array -> float
(** [exec] the expression's program and read its result operand. *)

val read : expr -> regs:float array -> float array -> float
(** Read the result operand without re-running the program — valid
    right after an {!exec} of the same program over the same [regs]
    and [state]. *)

val pp_prog : Format.formatter -> prog -> unit
(** Human-readable disassembly, for tests and debugging. *)
