(** Uniformly sampled simulation traces.

    The analysis algorithm of the paper consumes the simulation data as a
    stream of samples ("number of simulated data points" in Fig. 2), so
    jump-process trajectories are resampled onto a uniform time grid with
    zero-order hold: the value at grid point [g] is the state that held
    just before [g]. *)

type t

val names : t -> string array
(** Recorded species identifiers, in recording order. *)

val length : t -> int
(** Number of grid samples. *)

val t0 : t -> float
val dt : t -> float

val time : t -> int -> float
(** [time tr k] is the time of sample [k]. *)

val value : t -> string -> int -> float
(** [value tr id k] is the amount of species [id] at sample [k].
    @raise Not_found if [id] was not recorded. *)

val column : t -> string -> float array
(** Whole sampled series of one species (a fresh copy).
    @raise Not_found if the species was not recorded. *)

val index : t -> string -> int option
(** Position of a species in {!names} (first occurrence). Lookups are
    O(1) amortized: a name→index table is built lazily on the first
    lookup and reused for the life of the trace. *)

val sub : t -> from:int -> until:int -> t
(** Samples [from .. until - 1] as a new trace.
    @raise Invalid_argument on out-of-range bounds. *)

val concat : t -> t -> t
(** [concat a b] glues two contiguous recordings: same species, same
    [dt], and [b] starting exactly one step after [a] ends (within one
    part in 10^6 of [dt]). An empty operand is the identity — the
    other trace is returned unchanged, wherever the empty trace's
    nominal [t0] lies.
    @raise Invalid_argument otherwise. *)

val mean_opt : t -> string -> float option
(** Time-average of a species over the whole trace; [None] when the
    trace has no samples (an empty trace has no mean — e.g. a
    zero-width {!sub} window). *)

val variance_opt : t -> string -> float option
(** Population variance of a species' samples; [None] on an empty
    trace. *)

val fano_factor_opt : t -> string -> float option
(** [variance / mean] — the standard dispersion measure of gene
    expression noise; 1 for a Poisson-distributed stationary process.
    [None] on an empty trace or when the mean is zero (no dispersion
    measure exists). *)

val mean : t -> string -> float
(** {!mean_opt} with the documented sentinel [0.] for an empty trace.
    Callers that must distinguish "empty" from "mean is zero" use
    {!mean_opt}. *)

val variance : t -> string -> float
(** {!variance_opt} with the documented sentinel [0.] for an empty
    trace. *)

val fano_factor : t -> string -> float
(** {!fano_factor_opt} with the documented sentinel [nan] for an empty
    trace or a zero mean. *)

val crossings : t -> string -> float -> int
(** Number of times the sampled series crosses the given level (in
    either direction) — the analog precursor of the paper's variation
    count. *)

val max_value : t -> string -> float

val to_csv : t -> string
(** Header [time,<id>,...] then one row per sample. *)

val of_csv : string -> (t, string) result
(** Parses {!to_csv} output (uniform grid required). *)

val write_csv : string -> t -> unit
val read_csv : string -> (t, string) result

(** Incremental construction from a jump process. *)
module Recorder : sig
  type trace := t
  type t

  val create :
    names:string array ->
    initial:float array ->
    t0:float ->
    t_end:float ->
    dt:float ->
    t
  (** Grid [t0, t0 + dt, …] up to and including the last point [<= t_end].
      @raise Invalid_argument if [dt <= 0] or [t_end < t0] or the lengths
      of [names] and [initial] differ. *)

  val observe : t -> float -> float array -> unit
  (** [observe r t state] records that the system state is [state] from
      time [t] on. Times must be non-decreasing. *)

  val stop_when : t -> (float -> float array -> bool) -> unit
  (** [stop_when r until] arms an early finish: from now on, every grid
      sample [k] the recorder fills is followed by [until (time k)
      state], where [state] is exactly the recorded sample (read-only;
      the recorder reuses the array). The first sample where it holds
      stops the recorder: later {!observe}s record nothing and
      {!finish} returns samples [0 .. k] — a prefix of the trace an
      unarmed recorder would have produced. *)

  val stopped : t -> bool
  (** Whether the {!stop_when} predicate has held — the signal for the
      caller to stop simulating. *)

  val finish : t -> trace
  (** Fills the remaining grid with the last observed state (up to the
      stopping sample, if {!stop_when} fires on the way) and returns
      the trace. The recorder must not be used afterwards. *)
end
