(** Declarative job spaces for verification campaigns.

    A campaign verifies a grid of ensemble jobs: circuits × logic
    thresholds × FOV_UD values × logic-1 input levels × replicate
    counts — the shape of the paper's Table-1 evaluation (15 circuits ×
    one protocol) and of its Fig. 5 threshold study, generalised to any
    axis combination.

    The grid is {e declarative}: {!expand} flattens it into a job list
    in a deterministic nested order (circuits outermost, replicate
    counts innermost), and every job carries a stable, content-derived
    identifier — {!job_id} depends only on the job's parameters, so the
    same job has the same id across processes, resumes and grid
    re-orderings. The on-disk result store is keyed by these ids. *)

type t = private {
  circuits : string list;  (** benchmark names or [0xNN] codes *)
  thresholds : float list;  (** logic thresholds, molecules *)
  fov_uds : float list;  (** FOV_UD values, eq. (1) *)
  input_highs : float option list;
      (** logic-1 input amounts; [None] = the protocol default (the
          threshold value, as in the paper) *)
  replicate_counts : int list;  (** ensemble sizes *)
}

type spec = private {
  seed : int;  (** campaign root seed *)
  total_time : float;  (** per-job simulation length *)
  hold_time : float;  (** per-combination hold *)
  grid : t;
}

type job = {
  j_circuit : string;
  j_threshold : float;
  j_fov_ud : float;
  j_input_high : float option;
  j_replicates : int;
}

val make :
  ?thresholds:float list ->
  ?fov_uds:float list ->
  ?input_highs:float option list ->
  ?replicate_counts:int list ->
  string list ->
  t
(** Axis defaults: the paper's protocol — threshold 15, FOV_UD 0.25,
    input-high = threshold, 16 replicates.
    @raise Invalid_argument on an empty or duplicate-carrying axis, a
    non-positive threshold/FOV/input level, or a replicate count < 1
    (duplicates would expand to jobs with colliding ids). *)

val spec :
  ?seed:int -> ?total_time:float -> ?hold_time:float -> t -> spec
(** Campaign-level parameters around a grid; defaults seed 42 and the
    paper's 10,000/1,000 t.u. protocol.
    @raise Invalid_argument on non-positive times. *)

val expand : t -> job list
(** Deterministic flattening; [List.length (expand g) = size g]. *)

val size : t -> int

val job_id : job -> string
(** Stable content-derived identifier:
    [<sanitised-circuit>-<16 hex digits>], the hex being an FNV-1a
    digest of the canonical parameter rendering. Independent of the
    job's position in any grid. *)

val job_seed : seed:int -> job -> int
(** Deterministic per-job ensemble seed derived from the campaign root
    seed and {!job_id} — independent of execution order and of which
    jobs ran before a crash, which is what makes resumed campaigns
    byte-identical to uninterrupted ones. *)

val pp_job : Format.formatter -> job -> unit

val job_fields : job -> (string * Glc_json.value) list
(** The job's coordinates as JSON fields, in document order: [id],
    [circuit], [threshold], [fov_ud], [input_high] ([null] for the
    protocol default), [replicates]. The one rendering shared by result
    documents, the campaign report and serve status bodies. *)

(** {2 Manifest (de)serialisation} *)

val spec_to_json : spec -> string
(** The campaign [MANIFEST.json] body. Deterministic bytes. *)

val spec_of_json : string -> (spec, string) result
(** Parses and re-validates; rejects unknown manifest versions. *)
