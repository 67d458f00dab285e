(** Experimental protocol of the virtual laboratory.

    Mirrors the paper's setup (§III): each circuit is simulated for
    10,000 time units; the input combinations are applied in binary
    counting order, each held for the propagation delay (1,000 t.u.);
    the logic threshold is 15 molecules; and — as in the paper's
    threshold-variation study (Fig. 5) — the amount applied for a logic-1
    input {e is} the threshold value, so lowering the threshold to 3 or
    raising it to 40 also weakens or saturates the input drive. *)

module Sim := Glc_ssa.Sim

type order =
  | Counting  (** 000, 001, 010, … — the paper's order *)
  | Gray
      (** 000, 001, 011, 010, … — one input changes per step, which
          removes most of the decay-inherited highs of Fig. 4 *)

type t = {
  total_time : float;  (** simulation length, time units *)
  hold_time : float;  (** how long each input combination is applied *)
  threshold : float;  (** logic threshold, molecules *)
  input_high : float;  (** molecules applied for a logic-1 input *)
  input_low : float;  (** molecules applied for a logic-0 input *)
  dt : float;  (** trace sampling step *)
  seed : int;
  algorithm : Sim.algorithm;
  order : order;  (** input combination sequencing *)
}

val default : t
(** The paper's protocol: [total_time = 10_000.], [hold_time = 1_000.],
    [threshold = 15.], [input_high = threshold], [input_low = 0.],
    [dt = 1.], [seed = 42], direct method. *)

val make :
  ?total_time:float ->
  ?hold_time:float ->
  ?threshold:float ->
  ?input_high:float ->
  ?input_low:float ->
  ?dt:float ->
  ?seed:int ->
  ?algorithm:Sim.algorithm ->
  ?order:order ->
  unit ->
  t
(** {!default} with overrides. [input_high] defaults to the (possibly
    overridden) threshold.
    @raise Invalid_argument if a time, the threshold or [dt] is not
    positive and finite (0, negative, NaN or infinite), or if
    [input_low >= input_high]. *)

val with_threshold : t -> float -> t
(** Changes the threshold {e and} the logic-1 input amount together, as
    the paper's Fig. 5 experiment does.
    @raise Invalid_argument if the threshold is not positive and
    finite. *)

val slots : t -> int
(** Number of hold slots in the run,
    [ceil (total_time / hold_time)]. *)

val covers_all_rows : t -> arity:int -> bool
(** Whether the run is long enough to apply every input combination of
    an [arity]-input circuit at least once, i.e. [slots t >= 2^arity].
    A protocol that fails this cannot exercise the full truth table, so
    Algorithm 1 would report logic extracted from a partial sweep — the
    linter flags it ([GLC011]) before any simulation is spent. *)

val row_of_slot : t -> arity:int -> int -> int
(** The input combination applied during a hold slot (wrapping around
    every [2^arity] slots, sequenced by [order]). *)

val row_at : t -> arity:int -> float -> int
(** The input combination applied at a given time. *)
