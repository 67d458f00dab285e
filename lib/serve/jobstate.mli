(** Job descriptors and lifecycle state of the verification service.

    A serve job {e is} a campaign job ({!Glc_campaign.Grid.job}): the
    same coordinates (circuit, threshold, FOV_UD, input-high,
    replicates), the same content-derived {!Glc_campaign.Grid.job_id}
    and the same content-derived seed — which is what makes a job's
    result document byte-identical whether it was produced by [glcv
    verify]-style batch drains or by the daemon, and makes duplicate
    submissions collapse onto one identifier.

    An {!entry} tracks one admitted job through
    [queued → running → done/failed] (or [cancelled] from the queue).
    Entries live in a {!registry} owned by the server; all mutation
    happens under the server's mutex — the registry itself is
    deliberately unsynchronised plain data. *)

module Grid := Glc_campaign.Grid

type phase =
  | Queued
  | Running
  | Done
  | Failed of string  (** captured execution error *)
  | Cancelled

val phase_label : phase -> string
(** ["queued"], ["running"], ["done"], ["failed"], ["cancelled"]. *)

type entry = {
  id : string;  (** {!Glc_campaign.Grid.job_id} of [job] *)
  job : Grid.job;
  priority : int;
  seq : int;  (** admission order — the scheduler's FIFO tiebreak *)
  submitted_at : float;  (** server clock, seconds *)
  mutable phase : phase;
  mutable from_cache : bool;
      (** result served from the store / a previous daemon life rather
          than freshly computed *)
  mutable attempts : int;  (** executions started, across restarts *)
}

val make :
  job:Grid.job -> priority:int -> seq:int -> now:float -> entry
(** A fresh [Queued] entry; [id] is derived from [job]. *)

val job :
  circuit:string ->
  ?threshold:float ->
  ?fov_ud:float ->
  ?input_high:float ->
  ?replicates:int ->
  unit ->
  (Grid.job, string) result
(** Builds and validates one job through a single-cell
    {!Glc_campaign.Grid.make} grid, so admission enforces exactly the
    axis constraints campaigns do (positive threshold/FOV/level,
    replicates ≥ 1). Omitted parameters take the paper's defaults. *)

val spec_for :
  seed:int -> total_time:float -> hold_time:float -> Grid.job ->
  Grid.spec
(** The single-job campaign spec a job executes under — the daemon's
    protocol parameters around a one-cell grid. Feeding this to
    {!Glc_campaign.Runner.run_job} yields the identical bytes a
    campaign over the same cell would store. *)

val status : now:float -> entry -> Glc_json.value
(** The job's status document, e.g.
    [{"id":…,"circuit":…,…,"replicates":16,"priority":5,"seq":3,
    "status":"queued","from_cache":false,"attempts":0,"age_s":1.5}]
    — the job's {!Glc_campaign.Grid.job_fields}, then the admission
    and lifecycle fields. The [error] field (after [status]) appears
    only for failed jobs. *)

val status_json : now:float -> entry -> string
(** {!status}, printed. *)

val submission_json : entry -> string
(** The persisted admission record ([<state>/submitted/<id>.json]) —
    everything needed to re-enqueue the job after a daemon restart:
    coordinates, priority, sequence number. Contains no clock. *)

val submission_of_json :
  string -> (Grid.job * int * int, string) result
(** Parses a {!submission_json} record back into
    [(job, priority, seq)]. *)

(** {2 Registry} *)

type registry

val registry : unit -> registry

val find : registry -> string -> entry option

val add : registry -> entry -> unit
(** Replaces any previous entry under the same id. *)

val entries : registry -> entry list
(** All entries in admission ([seq]) order. *)

val count : registry -> phase -> int
(** Entries currently in a phase ([Failed _] counts as one phase). *)
