module W = Protocol_wire
module Store = Glc_campaign.Store
module Diagnostic = Glc_lint.Diagnostic
module Metrics = Glc_obs.Metrics
module Json = Glc_json

type ctx = {
  adm : Admission.t;
  mutex : Mutex.t;
  cond : Condition.t;
  clock : unit -> float;
  started_at : float;
  mutable running : string option;
  mutable stopping : bool;
}

let make_ctx ?(clock = Unix.gettimeofday) adm =
  {
    adm;
    mutex = Mutex.create ();
    cond = Condition.create ();
    clock;
    started_at = clock ();
    running = None;
    stopping = false;
  }

let locked ctx f =
  Mutex.lock ctx.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock ctx.mutex) f

let json_body fields = Json.to_string (Json.Object fields)
let error_body message = json_body [ ("error", Json.String message) ]

let submit_reply ~now ~dedup entry =
  json_body [ ("dedup", Json.Bool dedup); ("job", Jobstate.status ~now entry) ]

(* ---- handlers (called under the ctx mutex) ---- *)

let post_job ctx body =
  let now = ctx.clock () in
  if ctx.stopping then
    W.response 503 (error_body "daemon is shutting down")
  else
    match Admission.submit_of_json body with
    | Error m -> W.response 400 (error_body m)
    | Ok sub -> (
        match Admission.admit ctx.adm ~now sub with
        | Admission.Accepted entry ->
            Condition.signal ctx.cond;
            W.response 202 (submit_reply ~now ~dedup:false entry)
        | Admission.Duplicate entry ->
            W.response 200 (submit_reply ~now ~dedup:true entry)
        | Admission.Completed (entry, _doc) ->
            W.response 200 (submit_reply ~now ~dedup:true entry)
        | Admission.Rejected_lint ds ->
            W.response 422
              (json_body
                 [
                   ("error", Json.String "lint");
                   ("diagnostics", Json.Array (List.map Diagnostic.json ds));
                 ])
        | Admission.Rejected_busy retry_after ->
            W.response 429
              ~headers:[ ("Retry-After", string_of_int retry_after) ]
              (json_body
                 [
                   ("error", Json.String "queue full");
                   ("retry_after_s", Json.Int retry_after);
                 ])
        | Admission.Invalid m -> W.response 400 (error_body m))

let list_jobs ctx =
  let now = ctx.clock () in
  let entries = Jobstate.entries ctx.adm.Admission.registry in
  W.response 200
    (json_body
       [
         ("jobs", Json.Array (List.map (Jobstate.status ~now) entries));
         ( "queue_depth",
           Json.Int (Scheduler.length ctx.adm.Admission.scheduler) );
       ])

let job_status ctx id =
  match Jobstate.find ctx.adm.Admission.registry id with
  | None -> W.response 404 (error_body ("unknown job " ^ id))
  | Some entry ->
      W.response 200 (Jobstate.status_json ~now:(ctx.clock ()) entry)

let job_result ctx id =
  match Jobstate.find ctx.adm.Admission.registry id with
  | None -> (
      (* a previous daemon life may have completed it: results are
         durable even though registry entries are not *)
      match Store.get ctx.adm.Admission.store ~id with
      | Some doc -> W.response 200 doc
      | None -> W.response 404 (error_body ("unknown job " ^ id)))
  | Some entry -> (
      match entry.Jobstate.phase with
      | Jobstate.Done -> (
          match Store.get ctx.adm.Admission.store ~id with
          | Some doc -> W.response 200 doc
          | None ->
              W.response 500
                (error_body "result record missing from the store"))
      | Jobstate.Failed m ->
          W.response 500
            (json_body
               [
                 ("error", Json.String "job failed");
                 ("detail", Json.String m);
               ])
      | Jobstate.Cancelled ->
          W.response 409 (error_body "job was cancelled")
      | Jobstate.Queued | Jobstate.Running ->
          W.response 409
            (json_body
               [
                 ("error", Json.String "job not done");
                 ( "status",
                   Json.String (Jobstate.phase_label entry.Jobstate.phase) );
               ]))

let cancel_job ctx id =
  match Jobstate.find ctx.adm.Admission.registry id with
  | None -> W.response 404 (error_body ("unknown job " ^ id))
  | Some entry -> (
      match entry.Jobstate.phase with
      | Jobstate.Queued -> (
          match
            Scheduler.remove ctx.adm.Admission.scheduler (fun e ->
                String.equal e.Jobstate.id id)
          with
          | None ->
              (* raced with the worker between phase check and pop *)
              W.response 409 (error_body "job already started")
          | Some _ ->
              entry.Jobstate.phase <- Jobstate.Cancelled;
              Admission.remove_submission ctx.adm ~id;
              Metrics.Counter.incr
                (Metrics.counter ctx.adm.Admission.metrics
                   "serve.jobs_cancelled");
              Metrics.Gauge.set
                (Metrics.gauge ctx.adm.Admission.metrics "serve.queue_depth")
                (float_of_int (Scheduler.length ctx.adm.Admission.scheduler));
              W.response 200
                (Jobstate.status_json ~now:(ctx.clock ()) entry))
      | Jobstate.Running ->
          W.response 409 (error_body "job is running; cannot cancel")
      | Jobstate.Done | Jobstate.Failed _ | Jobstate.Cancelled ->
          W.response 409
            (error_body
               ("job is already " ^ Jobstate.phase_label entry.Jobstate.phase)))

let health ctx =
  let reg = ctx.adm.Admission.registry in
  W.response 200
    (json_body
       [
         ("ok", Json.Bool true);
         ( "uptime_s",
           Json.Number (Float.max 0. (ctx.clock () -. ctx.started_at)) );
         ("queued", Json.Int (Jobstate.count reg Jobstate.Queued));
         ("running", Json.Int (Jobstate.count reg Jobstate.Running));
         ("done", Json.Int (Jobstate.count reg Jobstate.Done));
         ("failed", Json.Int (Jobstate.count reg (Jobstate.Failed "")));
         ("cancelled", Json.Int (Jobstate.count reg Jobstate.Cancelled));
       ])

let metrics_scrape ctx =
  W.response ~content_type:"text/plain; version=0.0.4" 200
    (Metrics.to_text ctx.adm.Admission.metrics)

let route ctx (req : W.request) =
  let path = W.path_of_target req.W.target in
  match (req.W.meth, W.split_path path) with
  | W.POST, [ "v1"; "jobs" ] -> locked ctx (fun () -> post_job ctx req.W.body)
  | W.GET, [ "v1"; "jobs" ] -> locked ctx (fun () -> list_jobs ctx)
  | W.GET, [ "v1"; "jobs"; id ] -> locked ctx (fun () -> job_status ctx id)
  | W.GET, [ "v1"; "jobs"; id; "result" ] ->
      locked ctx (fun () -> job_result ctx id)
  | W.DELETE, [ "v1"; "jobs"; id ] -> locked ctx (fun () -> cancel_job ctx id)
  | W.GET, [ "health" ] -> locked ctx (fun () -> health ctx)
  | W.GET, [ "metrics" ] ->
      (* to_text takes the registry's own locks; no ctx mutex needed *)
      metrics_scrape ctx
  | _ -> W.response 404 (error_body ("no route for " ^ path))

let handle ctx req =
  let metrics = ctx.adm.Admission.metrics in
  let t0 = ctx.clock () in
  let resp = try route ctx req with e -> W.response 500 (error_body (Printexc.to_string e)) in
  Metrics.Counter.incr (Metrics.counter metrics "serve.requests");
  if resp.W.status >= 400 then
    Metrics.Counter.incr (Metrics.counter metrics "serve.http_errors");
  Metrics.Histogram.observe
    (Metrics.histogram metrics "serve.request_seconds")
    (Float.max 0. (ctx.clock () -. t0));
  resp
