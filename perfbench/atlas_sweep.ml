(* Workload atlas-sweep: a fresh Atlas.run over all 256 3-input
   functions at the paper protocol on nproc domains, then SPACE.json
   and ATLAS.md. The only workload that reaches the ODE layer (the 256
   delay measurements) and bulk certification. *)

open Common
module Atlas = Glc_space.Atlas
module Fn = Glc_space.Fn
module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Journal = Glc_campaign.Journal
module Resume = Glc_campaign.Resume
module Runner = Glc_campaign.Runner
module Certificate = Glc_symbolic.Certificate
module Ensemble = Glc_engine.Ensemble
module Pool = Glc_engine.Pool
module Cache = Glc_engine.Cache
module Compiled = Glc_ssa.Compiled
module Metrics = Glc_obs.Metrics
module Json = Glc_core.Report.Json

let spec seed = Atlas.plan { Atlas.default_config with Atlas.seed }

(* Set-up: plan, initialise the atlas directory, spawn the pool and
   compile the first function's model — what a sweep pays before its
   first job. *)
let setup_once dir spec =
  let dir = fresh_dir dir in
  let t0 = now () in
  let _store, _, _ = get_ok "Atlas.prepare" (Atlas.prepare ~dir spec) in
  let pool = Pool.create ~jobs:nproc () in
  let first = List.hd spec.Grid.grid.Grid.circuits in
  let circuit = get_ok "Runner.resolve" (Runner.resolve first) in
  ignore (Compiled.compile (Glc_gates.Circuit.model circuit));
  let dt = now () -. t0 in
  Pool.shutdown pool;
  rm_rf dir;
  dt

let report ~dir =
  let store, spec = get_ok "Resume.load" (Resume.load ~dir) in
  let json = Atlas.space_json store spec in
  (json, get_ok "Atlas.markdown" (Atlas.markdown json))

(* The fields of a SPACE.json function record that do not depend on
   the campaign seed: everything but the ensembles' sampled PFoBE and
   verdicts, and the frontier flags that follow from them. *)
let seed_free_view json =
  let v = get_ok "SPACE.json" (Json.parse json) in
  let fns = Option.value ~default:[] (Option.bind (Json.member v "functions") Json.to_list) in
  List.map
    (fun f ->
      let certified =
        Option.bind (Json.member f "provenance") Json.to_str = Some "certified"
      in
      let keys =
        [ "name"; "code"; "class"; "gates"; "depth"; "unate"; "canalizing";
          "nested_canalizing"; "done"; "provenance"; "certified_rows";
          "total_rows"; "delay" ]
        @ if certified then [ "verified"; "pfobe" ] else []
      in
      List.map (fun k -> (k, Json.member f k)) keys)
    fns

(* At seed 42 the sweep must reproduce the committed SPACE.json and
   ATLAS.md byte for byte; at any other seed every seed-independent
   field must still match them. *)
let check_outputs ~seed (json, md) =
  let space = read_file "SPACE.json" and atlas = read_file "ATLAS.md" in
  if seed = 42 then begin
    check "SPACE.json byte-identical to the committed file" (json = space);
    check "ATLAS.md byte-identical to the committed file" (md = atlas)
  end
  else begin
    check "SPACE.json seed-independent fields match the committed file"
      (seed_free_view json = seed_free_view space);
    check "ATLAS.md renders from SPACE.json"
      (Atlas.markdown json = Ok md)
  end

let check_summary (s : Atlas.summary) =
  let missing_delays = s.Atlas.a_functions - s.Atlas.a_delays in
  ops ~attempted:(2 * s.Atlas.a_functions)
    ~failed:(s.Atlas.a_failed + s.Atlas.a_remaining + missing_delays);
  if s.Atlas.a_failed + s.Atlas.a_remaining + missing_delays > 0 then
    Printf.eprintf "perfbench: sweep left %d failed, %d pending, %d without delay\n%!"
      s.Atlas.a_failed s.Atlas.a_remaining missing_delays

(* One timed sweep on a fresh directory; returns its wall time and
   rendered outputs. *)
let sweep ~dir spec =
  let dir = fresh_dir dir in
  let t0 = now () in
  let s = get_ok "Atlas.run" (Atlas.run ~jobs:nproc ~dir spec) in
  let out = report ~dir in
  let dt = now () -. t0 in
  check_summary s;
  (dt, s.Atlas.a_functions, out)

let setup_metric ~work spec =
  let samples = List.init 7 (fun _ -> setup_once (Filename.concat work "setup") spec) in
  ("setup_s", median samples)

let untraced ~work ~seed ~seconds =
  let spec = spec seed in
  let setup = setup_metric ~work spec in
  let start = now () in
  let rec loop acc fns =
    let dt, n, out = sweep ~dir:(Filename.concat work "sweep") spec in
    check_outputs ~seed out;
    let acc = dt :: acc and fns = fns + n in
    (* start another sweep only if it should end within [seconds] *)
    if now () -. start +. dt <= seconds then loop acc fns else (acc, fns)
  in
  let lat, fns = loop [] 0 in
  let ms = List.map (fun x -> 1000. *. x) lat in
  ( [
      setup;
      ("latency_p50_ms", median ms);
      ("latency_p90_ms", quantile 0.9 ms);
      ("jobs_per_s", float_of_int fns /. sum lat);
      ("peak_rss_mb", peak_rss_mb "self");
    ],
    [ ("samples", List.length lat) ] )

(* The traced pass: Atlas.run taken apart into the public calls it
   makes — Atlas.prepare, Fn.describe per function, then the campaign
   drain of Runner.run (journal, Runner.resolve, Certificate.certify,
   Ensemble.run for undecided functions, the result document,
   Store.put), then the delay phase through Atlas.run itself (every
   job is stored by then, so it only measures delays), then the
   report. Its outputs must equal the untraced sweep's bytes. *)
let traced_pass tr live ~dir spec =
  let dir = fresh_dir dir in
  let store, spec, _ = span tr "campaign.prepare" (fun () -> get_ok "Atlas.prepare" (Atlas.prepare ~dir spec)) in
  List.iter
    (fun name ->
      match Glc_gates.Cello.code_of_name name with
      | None -> ()
      | Some (arity, code) -> span tr "space.synthesise" (fun () -> ignore (Fn.describe ~arity code)))
    spec.Grid.grid.Grid.circuits;
  let drained =
    (* unspanned: the spans inside it are the layer calls *)
    Store.Lock.with_lock ~dir (fun () ->
        let journal = Journal.open_ ~dir in
        let append ev = span tr "campaign.journal_append" (fun () -> Journal.append journal ev) in
        let pending = Resume.pending ~store (Grid.expand spec.Grid.grid) in
        List.iter (fun j -> append (Journal.Scheduled (Grid.job_id j))) pending;
        let pool = span tr "engine.pool_spawn" (fun () -> Pool.create ~jobs:nproc ()) in
        let cache = Cache.create () in
        List.iter
          (fun (job : Grid.job) ->
            let id = Grid.job_id job in
            append (Journal.Started id);
            let circuit =
              span tr "gates.assembly" (fun () ->
                  get_ok "Runner.resolve" (Runner.resolve job.Grid.j_circuit))
            in
            let protocol = Runner.job_protocol spec job in
            let seed = Grid.job_seed ~seed:spec.Grid.seed job in
            let cert =
              span tr "symbolic.certify" (fun () ->
                  Certificate.certify ~metrics:live ~protocol circuit)
            in
            let doc =
              if Certificate.fully_decided cert then
                span tr "campaign.document" (fun () -> Runner.certified_document ~seed job cert)
              else
                let cfg =
                  Ensemble.config ~replicates:job.Grid.j_replicates ~seed ~protocol
                    ~fov_ud:job.Grid.j_fov_ud ()
                in
                let t =
                  span tr "engine.ensemble" (fun () ->
                      Ensemble.run ~pool ~cache ~metrics:live cfg circuit)
                in
                span tr "campaign.document" (fun () ->
                    Runner.job_document ~certificate:cert ~seed job t)
            in
            span tr "campaign.store_put" (fun () -> Store.put store ~id doc);
            append (Journal.Done id))
          pending;
        Pool.shutdown pool;
        Journal.close journal)
  in
  get_ok "Store.Lock" drained;
  let s =
    span tr "space.delays" (fun () ->
        get_ok "Atlas.run" (Atlas.run ~jobs:nproc ~metrics:live ~dir spec))
  in
  check_summary s;
  span tr "space.report" (fun () -> report ~dir)

let traced ~work ~seed =
  let spec = spec seed in
  let untraced_wall, _, reference = sweep ~dir:(Filename.concat work "reference") spec in
  check_outputs ~seed reference;
  let tr = trace () and live = Metrics.create () in
  let t0 = now () in
  let out = traced_pass tr live ~dir:(Filename.concat work "traced") spec in
  let traced_wall = now () -. t0 in
  check "traced sweep renders the untraced sweep's bytes" (out = reference);
  write_spans tr (Filename.concat work "spans.jsonl");
  let counter name = float_of_int (Metrics.Counter.value (Metrics.counter live name)) in
  let delays = counter "space.delays_measured" in
  let delay_span = List.hd (spans_named tr "space.delays") in
  let certify = durations tr "symbolic.certify" in
  let ms xs = 1000. *. median xs in
  ( [
      ("space.synthesise_s", total tr "space.synthesise");
      ("space.synthesise_alloc_words", words_per_call tr "space.synthesise");
      ("gates.assembly_s", total tr "gates.assembly");
      ("gates.assembly_alloc_words", words_per_call tr "gates.assembly");
      ("symbolic.certify_p50_s", median certify);
      ("symbolic.certify_max_s", List.fold_left Float.max 0. certify);
      ("symbolic.certify_alloc_words", words_per_call tr "symbolic.certify");
      ("symbolic.fixpoint_iterations", counter "symbolic.fixpoint_iterations");
      ("engine.ensemble_s", total tr "engine.ensemble");
      ("engine.replicates_ok", counter "engine.replicates_ok");
      ("ssa.reactions_fired", counter "ssa.reactions_fired");
      ("campaign.store_put_s", total tr "campaign.store_put");
      ("campaign.store_put_ms", ms (durations tr "campaign.store_put"));
      ("campaign.store_put_alloc_words", words_per_call tr "campaign.store_put");
      ("campaign.journal_append_s", total tr "campaign.journal_append");
      ("campaign.journal_append_ms", ms (durations tr "campaign.journal_append"));
      ("campaign.journal_append_alloc_words", words_per_call tr "campaign.journal_append");
      ("space.delays_measured", delays);
      ("space.measure_delay_s", delay_span.s_dur /. delays);
      ("space.measure_delay_alloc_words", delay_span.s_words /. delays);
      ("space.report_s", total tr "space.report");
      ("space.report_alloc_words", words_per_call tr "space.report");
    ]
    @ ("bench.trace_overhead", traced_wall /. untraced_wall)
      :: coverage_metrics tr ~traced_wall,
    [ ("spans", List.length tr.spans) ] )
