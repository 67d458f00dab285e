module W = Protocol_wire
module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Journal = Glc_campaign.Journal
module Runner = Glc_campaign.Runner
module Pool = Glc_engine.Pool
module Cache = Glc_engine.Cache
module Metrics = Glc_obs.Metrics
module Json = Glc_json

type config = {
  socket_path : string;
  state_dir : string;
  pool_jobs : int;
  queue_capacity : int;
  seed : int;
  total_time : float;
  hold_time : float;
  lint_admission : bool;
  start_worker : bool;
  metrics : Glc_obs.Metrics.t;
}

let config ~socket_path ~state_dir ?(pool_jobs = 0) ?(queue_capacity = 64)
    ?(seed = 42) ?(total_time = 10_000.) ?(hold_time = 1_000.)
    ?(lint_admission = true) ?(start_worker = true)
    ?(metrics = Metrics.noop) () =
  {
    socket_path;
    state_dir;
    pool_jobs;
    queue_capacity;
    seed;
    total_time;
    hold_time;
    lint_admission;
    start_worker;
    metrics;
  }

type t = {
  s_cfg : config;
  s_ctx : Session.ctx;
  s_store : Store.t;
  s_journal : Journal.t;
  s_lock : Store.Lock.lock;
  s_listen : Unix.file_descr;
  s_interrupt : bool Atomic.t;
}

let ctx t = t.s_ctx
let effective_config t = t.s_cfg

let manifest_json cfg =
  Json.to_string
    (Json.Object
       [
         ("serve", Json.Int 1);
         ("seed", Json.Int cfg.seed);
         ("total_time", Json.Number cfg.total_time);
         ("hold_time", Json.Number cfg.hold_time);
       ])

(* An existing manifest wins over the flags: the stored results were
   computed under its seed and protocol, and resume-determinism
   requires finishing under the same ones. *)
let manifest_override cfg text =
  match Json.parse text with
  | Error m -> Error (Printf.sprintf "unreadable serve manifest: %s" m)
  | Ok doc -> (
      match Json.member doc "serve" with
      | None ->
          Error
            "state directory holds a campaign manifest, not a serve one \
             (use a separate --state directory)"
      | Some _ -> (
          let num k = Option.bind (Json.member doc k) Json.to_number in
          let int k = Option.bind (Json.member doc k) Json.to_int in
          match (int "seed", num "total_time", num "hold_time") with
          | Some seed, Some total_time, Some hold_time ->
              Ok { cfg with seed; total_time; hold_time }
          | _ -> Error "serve manifest lacks seed/total_time/hold_time"))

let open_store cfg =
  if Sys.file_exists (Filename.concat cfg.state_dir "MANIFEST.json") then
    match Store.load ~dir:cfg.state_dir with
    | Error m -> Error m
    | Ok (store, manifest) -> (
        match manifest_override cfg manifest with
        | Error m -> Error m
        | Ok cfg -> Ok (store, cfg))
  else
    match Store.create ~dir:cfg.state_dir (manifest_json cfg) with
    | Error m -> Error m
    | Ok store -> Ok (store, cfg)

(* Re-enqueue every persisted-but-unfinished submission; register the
   finished ones as done so their status survives the restart. *)
let resume_submissions adm ~state_dir ~metrics =
  match Admission.pending_submissions ~state_dir with
  | Error m -> Error m
  | Ok records ->
      let now = Unix.gettimeofday () in
      let resumed = ref 0 in
      List.iter
        (fun (job, priority, seq) ->
          let id = Grid.job_id job in
          let entry = Jobstate.make ~job ~priority ~seq ~now in
          if Store.mem adm.Admission.store ~id then begin
            (* result landed before the crash removed the record *)
            entry.Jobstate.phase <- Jobstate.Done;
            entry.Jobstate.from_cache <- true;
            Admission.remove_submission adm ~id
          end
          else begin
            match
              Scheduler.push_seq adm.Admission.scheduler ~priority ~seq entry
            with
            | `Full -> () (* capacity shrank across restarts; next life *)
            | `Queued _ ->
                incr resumed;
                Journal.append adm.Admission.journal (Journal.Scheduled id)
          end;
          Jobstate.add adm.Admission.registry entry)
        records;
      if !resumed > 0 then
        Metrics.Counter.add
          (Metrics.counter metrics "serve.jobs_resumed")
          !resumed;
      Metrics.Gauge.set
        (Metrics.gauge metrics "serve.queue_depth")
        (float_of_int (Scheduler.length adm.Admission.scheduler));
      Ok ()

let bind_socket path =
  if Sys.file_exists path then
    (* the state-dir lock is the liveness guard; a leftover socket file
       here is from a dead daemon (or a colliding path — either way,
       binding requires removing it) *)
    (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 16
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e))

let create cfg =
  Store.mkdir_p cfg.state_dir;
  match Store.Lock.acquire ~dir:cfg.state_dir with
  | Error m -> Error m
  | Ok lock -> (
      let fail m =
        Store.Lock.release lock;
        Error m
      in
      match open_store cfg with
      | Error m -> fail m
      | Ok (store, cfg) -> (
          let journal = Journal.open_ ~dir:cfg.state_dir in
          let adm_cfg =
            Admission.config ~seed:cfg.seed ~total_time:cfg.total_time
              ~hold_time:cfg.hold_time ~lint_admission:cfg.lint_admission
              ~queue_capacity:cfg.queue_capacity ()
          in
          let adm =
            Admission.create ~cfg:adm_cfg ~store ~journal
              ~metrics:cfg.metrics ~state_dir:cfg.state_dir
          in
          match
            resume_submissions adm ~state_dir:cfg.state_dir
              ~metrics:cfg.metrics
          with
          | Error m ->
              Journal.close journal;
              fail m
          | Ok () -> (
              match bind_socket cfg.socket_path with
              | Error m ->
                  Journal.close journal;
                  fail m
              | Ok listen ->
                  Ok
                    {
                      s_cfg = cfg;
                      s_ctx = Session.make_ctx adm;
                      s_store = store;
                      s_journal = journal;
                      s_lock = lock;
                      s_listen = listen;
                      s_interrupt = Atomic.make false;
                    })))

let stop t =
  Atomic.set t.s_interrupt true;
  let ctx = t.s_ctx in
  Mutex.lock ctx.Session.mutex;
  ctx.Session.stopping <- true;
  Condition.broadcast ctx.Session.cond;
  Mutex.unlock ctx.Session.mutex

let install_signal_handlers t =
  let flag _ = Atomic.set t.s_interrupt true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle flag);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle flag)

(* ---- worker ---- *)

let run_one t ~pool ~cache entry =
  let cfg = t.s_cfg in
  let metrics = cfg.metrics in
  let job = entry.Jobstate.job in
  let spec =
    Jobstate.spec_for ~seed:cfg.seed ~total_time:cfg.total_time
      ~hold_time:cfg.hold_time job
  in
  let t0 = Unix.gettimeofday () in
  let result =
    try Ok (Runner.run_job ~metrics ~pool ~cache spec job)
    with e -> Error (Printexc.to_string e)
  in
  (Unix.gettimeofday () -. t0, result)

let worker_loop t ~pool ~cache =
  let ctx = t.s_ctx in
  let adm = ctx.Session.adm in
  let metrics = t.s_cfg.metrics in
  let gauge name v = Metrics.Gauge.set (Metrics.gauge metrics name) v in
  let rec loop () =
    Mutex.lock ctx.Session.mutex;
    while
      Scheduler.is_empty adm.Admission.scheduler
      && not ctx.Session.stopping
    do
      Condition.wait ctx.Session.cond ctx.Session.mutex
    done;
    if ctx.Session.stopping then Mutex.unlock ctx.Session.mutex
    else
      match Scheduler.pop adm.Admission.scheduler with
      | None ->
          Mutex.unlock ctx.Session.mutex;
          loop ()
      | Some (_, entry) ->
          let id = entry.Jobstate.id in
          entry.Jobstate.phase <- Jobstate.Running;
          entry.Jobstate.attempts <- entry.Jobstate.attempts + 1;
          ctx.Session.running <- Some id;
          gauge "serve.jobs_running" 1.;
          gauge "serve.queue_depth"
            (float_of_int (Scheduler.length adm.Admission.scheduler));
          Metrics.Histogram.observe
            (Metrics.histogram metrics "serve.queue_wait_seconds")
            (Float.max 0.
               (Unix.gettimeofday () -. entry.Jobstate.submitted_at));
          Journal.append t.s_journal (Journal.Started id);
          Mutex.unlock ctx.Session.mutex;
          let dt, result = run_one t ~pool ~cache entry in
          Mutex.lock ctx.Session.mutex;
          (match result with
          | Ok doc ->
              Store.put t.s_store ~id doc;
              Journal.append t.s_journal (Journal.Done id);
              entry.Jobstate.phase <- Jobstate.Done;
              Admission.remove_submission adm ~id;
              Admission.note_job_seconds adm dt;
              Metrics.Counter.incr
                (Metrics.counter metrics "serve.jobs_completed");
              Metrics.Histogram.observe
                (Metrics.histogram metrics "serve.job_seconds")
                dt
          | Error msg ->
              (* keep the submission record: a transient failure is
                 retried by the next daemon life *)
              Journal.append t.s_journal (Journal.Failed (id, msg));
              entry.Jobstate.phase <- Jobstate.Failed msg;
              Metrics.Counter.incr
                (Metrics.counter metrics "serve.jobs_failed"));
          ctx.Session.running <- None;
          gauge "serve.jobs_running" 0.;
          Mutex.unlock ctx.Session.mutex;
          loop ()
  in
  loop ()

(* ---- connections ---- *)

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let connection t fd =
  let reader = W.fd_reader fd in
  let rec loop () =
    match W.read_request reader with
    | Ok None -> ()
    | Error m ->
        let resp = W.response 400 (Session.error_body m) in
        write_all fd (W.render_response ~close:true resp)
    | Ok (Some req) ->
        let resp = Session.handle t.s_ctx req in
        let keep = W.keep_alive req && not (Atomic.get t.s_interrupt) in
        write_all fd (W.render_response ~close:(not keep) resp);
        if keep then loop ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try loop () with Unix.Unix_error _ | Sys_error _ -> ())

(* ---- lifecycle ---- *)

let run t =
  let cfg = t.s_cfg in
  let pool =
    Pool.create
      ?jobs:(if cfg.pool_jobs > 0 then Some cfg.pool_jobs else None)
      ~metrics:cfg.metrics ()
  in
  let cache = Cache.create ~metrics:cfg.metrics () in
  let worker =
    if cfg.start_worker then
      Some (Thread.create (fun () -> worker_loop t ~pool ~cache) ())
    else None
  in
  let rec accept_loop () =
    if Atomic.get t.s_interrupt then stop t
    else begin
      (match Unix.select [ t.s_listen ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.s_listen with
          | exception Unix.Unix_error _ -> ()
          | fd, _ -> ignore (Thread.create (connection t) fd))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if not t.s_ctx.Session.stopping then accept_loop ()
    end
  in
  accept_loop ();
  stop t;
  (try Unix.close t.s_listen with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Option.iter Thread.join worker;
  Pool.shutdown pool;
  Mutex.lock t.s_ctx.Session.mutex;
  Journal.close t.s_journal;
  Mutex.unlock t.s_ctx.Session.mutex;
  Store.Lock.release t.s_lock
