(** On-disk result store of a campaign.

    Directory layout:

    {v
    <dir>/
      MANIFEST.json          the campaign spec (Grid.spec_to_json)
      journal.jsonl          job lifecycle events (module Journal)
      results/<job-id>.json  one document per completed job
    v}

    Every write is atomic: the document is written to a pid-stamped
    temp file in the same directory, fsync'd, then renamed over the
    final path — a result file is either fully present and parseable or
    absent, never half-written. {!get} additionally validates that the
    stored bytes parse, so even a corrupted file degrades to "absent"
    (the job simply re-runs on resume) rather than poisoning a
    campaign. *)

type t

val mkdir_p : string -> unit
(** [mkdir "-p"]: creates the directory and its missing parents. *)

(** {2 Single-writer lock}

    A campaign (or serve) state directory tolerates crashed writers —
    every write is atomic and resume re-runs what is missing — but not
    {e concurrent} ones: two drains of the same directory would run
    every pending job twice and interleave journal records. The lock
    makes the single-writer discipline explicit: the draining entry
    points ({!Resume.run}, the serve daemon) take it for the duration
    of the drain, and a second process opening the same directory fails
    cleanly instead of corrupting the campaign. *)
module Lock : sig
  type lock

  val path : dir:string -> string
  (** [<dir>/LOCK]. *)

  val acquire : dir:string -> (lock, string) result
  (** Creates [<dir>/LOCK] with [O_CREAT|O_EXCL] containing this
      process's pid. When the file already exists, the pid inside is
      probed: a live process means the directory is genuinely busy
      ([Error] naming the pid); a dead pid or unparseable content is a
      stale lock left by a [kill -9], which is removed and the
      acquisition retried (once — losing the re-acquisition race to
      another process is again a clean [Error]). *)

  val release : lock -> unit
  (** Removes the lock file. Idempotent; never raises. *)

  val with_lock : dir:string -> (unit -> 'a) -> ('a, string) result
  (** [acquire], run, [release] — the release happens on exceptions
      too. [Error] only when the acquisition itself fails. *)
end

val create : dir:string -> string -> (t, string) result
(** [create ~dir manifest_json] initialises a fresh campaign directory
    (creating [dir] and [dir/results]) and persists the manifest.
    Errors if [dir] already holds a manifest — resume instead. *)

val load : dir:string -> (t * string, string) result
(** Opens an existing campaign directory; returns the store and the
    raw manifest text. *)

val dir : t -> string

val result_path : t -> id:string -> string

val put : t -> id:string -> string -> unit
(** Atomically persists one job document under its id. *)

val get : t -> id:string -> string option
(** The stored document, or [None] when absent {e or} unparseable. *)

val mem : t -> id:string -> bool

val completed : t -> string list
(** Ids with a present, parseable result, sorted. *)

(** {2 The campaign report}

    Derived purely from the store and the expanded grid, in grid
    order — so two stores with identical contents render identical
    bytes regardless of the order, interruptions or process boundaries
    under which the results arrived. This is the resume-determinism
    acceptance contract. *)

type job_line = {
  l_job : Grid.job;
  l_done : bool;
  l_verified : bool;
      (** the document's top-level verdict (a certificate's proof or
          the ensemble consensus; older documents fall back to
          [ensemble.consensus_verified]); false when not done *)
  l_verified_count : int;
  l_completed : int;  (** replicates that finished *)
  l_failed : int;  (** replicates that crashed *)
  l_fitness_mean : float;  (** nan when not done *)
  l_provenance : string;
      (** ["certified"] (symbolically proved, no ensemble) or
          ["simulated"]; ["-"] when not done *)
  l_certified_rows : int;  (** truth-table rows the certificate proved *)
  l_total_rows : int;  (** 0 on documents stored before provenance *)
}

val lines : t -> Grid.spec -> job_line list
(** One line per grid job, in grid order. *)

val report_json : t -> Grid.spec -> string
(** Machine-readable campaign report. Deterministic bytes. *)

val pp_report : Format.formatter -> t * Grid.spec -> unit
