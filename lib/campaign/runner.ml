module Json = Glc_json
module Circuit = Glc_gates.Circuit
module Benchmarks = Glc_gates.Benchmarks
module Cello = Glc_gates.Cello
module Protocol = Glc_dvasim.Protocol
module Pool = Glc_engine.Pool
module Cache = Glc_engine.Cache
module Ensemble = Glc_engine.Ensemble
module Stats = Glc_engine.Stats
module Metrics = Glc_obs.Metrics
module Certificate = Glc_symbolic.Certificate

type progress = {
  p_completed : int;
  p_failed : int;
  p_total : int;
  p_elapsed : float;
  p_eta : float option;
}

type summary = {
  ran : int;
  succeeded : int;
  failed : int;
  remaining : int;
}

let resolve name =
  match Benchmarks.find name with
  | Some c -> Ok c
  | None -> (
      (* the hex-digit count selects the arity: 0xNN is a 3-input code,
         0xNNNN a 4-input one (Cello.code_of_name) *)
      let code =
        match Cello.code_of_name name with
        | Some _ as c -> c
        | None -> (
            (* bare decimal keeps meaning a 3-input code *)
            match int_of_string_opt name with
            | Some c when c >= 0 && c <= 0xFF -> Some (3, c)
            | _ -> None)
      in
      match code with
      | Some (arity, code) -> (
          match Cello.of_code ~arity code with
          | c -> Ok c
          | exception Invalid_argument m -> Error m)
      | None ->
          Error
            (Printf.sprintf
               "unknown circuit %S (benchmark name or a code like 0x1C)"
               name))

let job_protocol (spec : Grid.spec) (job : Grid.job) =
  match job.Grid.j_input_high with
  | None ->
      Protocol.make ~total_time:spec.Grid.total_time
        ~hold_time:spec.Grid.hold_time ~threshold:job.Grid.j_threshold ()
  | Some input_high ->
      Protocol.make ~total_time:spec.Grid.total_time
        ~hold_time:spec.Grid.hold_time ~threshold:job.Grid.j_threshold
        ~input_high ()

(* Every stored document opens with the same job coordinates
   ({!Grid.job_fields}) and seed, and carries the same provenance triple
   + top-level [verified] / [fitness_mean] summary fields, whichever
   execution path produced it — report readers never branch on the
   document's origin. *)
let document ~seed job ~provenance ~certified_rows ~total_rows ~verified
    ~fitness_mean evidence =
  Json.to_string
    (Json.Object
       (Grid.job_fields job
       @ [
           ("seed", Json.Int seed);
           ("provenance", Json.String provenance);
           ("certified_rows", Json.Int certified_rows);
           ("total_rows", Json.Int total_rows);
           ("verified", Json.Bool verified);
           ("fitness_mean", Json.Number fitness_mean);
           evidence;
         ]))

(* The simulated document: the full deterministic ensemble report is the
   evidence; the certificate, when one rode along, only contributes how
   many rows it settled before the ensemble ran. Byte-deterministic for
   a given (spec, job). *)
let job_document ?certificate ~seed (job : Grid.job) (t : Ensemble.t) =
  let certified_rows, total_rows =
    match certificate with
    | None -> (0, 0)
    | Some c -> (Certificate.decided c, Certificate.rows c)
  in
  document ~seed job ~provenance:"simulated" ~certified_rows ~total_rows
    ~verified:t.Ensemble.consensus_verified
    ~fitness_mean:t.Ensemble.fitness.Stats.mean
    ("ensemble", Ensemble.json t)

(* The certified document: every row was proved symbolically, so there
   is no ensemble — the certificate itself is the evidence. A proof
   carries no sampling noise, so fitness_mean is a clean 100. *)
let certified_document ~seed (job : Grid.job) (cert : Certificate.t) =
  document ~seed job ~provenance:"certified"
    ~certified_rows:(Certificate.decided cert)
    ~total_rows:(Certificate.rows cert)
    ~verified:(Certificate.verified cert = Some true)
    ~fitness_mean:100.
    ("certificate", Certificate.json cert)

let run_job ?metrics ~pool ~cache (spec : Grid.spec) (job : Grid.job) =
  match resolve job.Grid.j_circuit with
  | Error m -> failwith m
  | Ok circuit ->
      let protocol = job_protocol spec job in
      let seed = Grid.job_seed ~seed:spec.Grid.seed job in
      (* symbolic fast path: a certificate that settles every row makes
         the ensemble redundant — the job costs no simulation at all.
         Otherwise the certificate still rides along in the document as
         provenance for how much of the table was already settled. *)
      let cert = Certificate.certify ?metrics ~protocol circuit in
      if Certificate.fully_decided cert then
        certified_document ~seed job cert
      else
        let cfg =
          Ensemble.config ~replicates:job.Grid.j_replicates ~seed ~protocol
            ~fov_ud:job.Grid.j_fov_ud ()
        in
        let t = Ensemble.run ~pool ~cache ?metrics cfg circuit in
        job_document ~certificate:cert ~seed job t

let null_progress (_ : progress) = ()

let run ?(jobs = 0) ?limit ?(on_progress = null_progress)
    ?(metrics = Metrics.noop) ?(should_stop = fun () -> false) ~store
    ~journal (spec : Grid.spec) pending =
  let todo =
    match limit with
    | None -> List.length pending
    | Some k ->
        if k < 0 then invalid_arg "Runner.run: limit < 0"
        else min k (List.length pending)
  in
  let live = Metrics.enabled metrics in
  let h_job = Metrics.histogram metrics "campaign.job_seconds" in
  let h_put = Metrics.histogram metrics "campaign.store_put_seconds" in
  let h_append = Metrics.histogram metrics "campaign.journal_append_seconds" in
  let c_scheduled = Metrics.counter metrics "campaign.jobs_scheduled" in
  let c_ok = Metrics.counter metrics "campaign.jobs_succeeded" in
  let c_fail = Metrics.counter metrics "campaign.jobs_failed" in
  Metrics.Gauge.set (Metrics.gauge metrics "campaign.jobs_todo")
    (float_of_int todo);
  (* Instrumented wrappers for the two persistence hot spots: the store
     write (temp + fsync + rename) and the journal append (fsync per
     record). *)
  let journal_append ev =
    if live then begin
      let t0 = Glc_obs.Clock.now () in
      Journal.append journal ev;
      Metrics.Histogram.observe h_append (Glc_obs.Clock.now () -. t0)
    end
    else Journal.append journal ev
  in
  let store_put ~id doc =
    if live then begin
      let t0 = Glc_obs.Clock.now () in
      Store.put store ~id doc;
      Metrics.Histogram.observe h_put (Glc_obs.Clock.now () -. t0)
    end
    else Store.put store ~id doc
  in
  List.iter
    (fun job ->
      Metrics.Counter.incr c_scheduled;
      journal_append (Journal.Scheduled (Grid.job_id job)))
    pending;
  let started_at = Unix.gettimeofday () in
  let succeeded = ref 0 and failed = ref 0 in
  let report () =
    let completed = !succeeded + !failed in
    let elapsed = Unix.gettimeofday () -. started_at in
    on_progress
      {
        p_completed = completed;
        p_failed = !failed;
        p_total = todo;
        p_elapsed = elapsed;
        p_eta =
          (if completed = 0 then None
           else
             Some
               (elapsed /. float_of_int completed
               *. float_of_int (todo - completed)));
      }
  in
  let jobs = if jobs = 0 then Pool.default_jobs () else jobs in
  let attempted = ref 0 in
  let stopped = ref false in
  Pool.with_pool ~jobs ~metrics (fun pool ->
      (* one compiled-model cache across the whole campaign: jobs over
         the same circuit and kinetics (e.g. differing only in FOV_UD
         or replicate count) compile once *)
      let cache = Cache.create ~metrics () in
      List.iteri
        (fun i job ->
          if i < todo && not !stopped && should_stop () then
            stopped := true;
          if i < todo && not !stopped then begin
            incr attempted;
            let id = Grid.job_id job in
            journal_append (Journal.Started id);
            let t_job = if live then Glc_obs.Clock.now () else 0. in
            (match
               Metrics.span metrics ("job:" ^ id) (fun () ->
                   run_job ~metrics ~pool ~cache spec job)
             with
            | doc ->
                store_put ~id doc;
                journal_append (Journal.Done id);
                Metrics.Counter.incr c_ok;
                incr succeeded
            | exception e ->
                (* one bad model degrades the campaign, it does not
                   kill it: record the error, move on *)
                journal_append (Journal.Failed (id, Printexc.to_string e));
                Metrics.Counter.incr c_fail;
                incr failed);
            if live then Metrics.Histogram.observe h_job (Glc_obs.Clock.now () -. t_job);
            report ()
          end)
        pending);
  let completed = !succeeded + !failed in
  let elapsed = Unix.gettimeofday () -. started_at in
  if live && completed > 0 && elapsed > 0. then
    Metrics.Histogram.observe
      (Metrics.histogram metrics "campaign.jobs_per_second")
      (float_of_int completed /. elapsed);
  {
    ran = !attempted;
    succeeded = !succeeded;
    failed = !failed;
    remaining = List.length pending - !attempted;
  }

let counter_progress ?(oc = stderr) () =
  fun p ->
    let eta =
      match p.p_eta with
      | None -> ""
      | Some eta -> Printf.sprintf ", ETA %.0fs" eta
    in
    Printf.fprintf oc "\rcampaign: %d/%d job(s)%s%s%!" p.p_completed
      p.p_total
      (if p.p_failed > 0 then Printf.sprintf " (%d failed)" p.p_failed
       else "")
      eta;
    if p.p_completed = p.p_total then Printf.fprintf oc "\n%!"
