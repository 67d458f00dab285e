(* Workload ensemble-0x17: Ensemble.run on Table-1's 0x17 at the paper
   protocol with 64 replicates on a pool of nproc domains. Its time is
   the SSA hot path, Algorithm 1 and the pool; it never reaches the
   ODE, symbolic, campaign or serve layers. *)

open Common
module Ensemble = Glc_engine.Ensemble
module Pool = Glc_engine.Pool
module Seeds = Glc_engine.Seeds
module Cache = Glc_engine.Cache
module Circuit = Glc_gates.Circuit
module Protocol = Glc_dvasim.Protocol
module Experiment = Glc_dvasim.Experiment
module Sim = Glc_ssa.Sim
module Compiled = Glc_ssa.Compiled
module Analyzer = Glc_core.Analyzer
module Verify = Glc_core.Verify
module Metrics = Glc_obs.Metrics

let replicates = 64
let circuit () = get_ok "Runner.resolve" (Glc_campaign.Runner.resolve "0x17")
let config seed = Ensemble.config ~replicates ~seed ()

(* Set-up: spawn the pool and compile the model — what the first
   ensemble of a `glcv ensemble` call pays before any trajectory. *)
let setup_once c =
  let t0 = now () in
  let pool = Pool.create ~jobs:nproc () in
  ignore (Compiled.compile (Circuit.model c));
  let dt = now () -. t0 in
  Pool.shutdown pool;
  dt

let check_ensemble (t : Ensemble.t) =
  let failures = Array.length t.Ensemble.failures in
  ops ~attempted:t.Ensemble.requested ~failed:failures;
  check "ensemble consensus verified" t.Ensemble.consensus_verified

let timed pool cfg c =
  let t0 = now () in
  let t = Ensemble.run ~pool cfg c in
  (now () -. t0, t)

(* The same ensemble on one domain must render the same bytes. *)
let serial_json cfg c =
  Pool.with_pool ~jobs:1 (fun pool ->
      let t = Ensemble.run ~pool cfg c in
      check_ensemble t;
      Ensemble.to_json t)

let untraced ~work:_ ~seed ~seconds =
  let c = circuit () and cfg = config seed in
  let setup = median (List.init 21 (fun _ -> setup_once c)) in
  (* the one-domain reference runs first: it also takes the process
     through its heap growth before anything is timed *)
  let one = serial_json cfg c in
  let lat, jsons =
    Pool.with_pool ~jobs:nproc (fun pool ->
        let start = now () in
        let rec loop lat jsons =
          let dt, t = timed pool cfg c in
          check_ensemble t;
          let lat = dt :: lat and jsons = Ensemble.to_json t :: jsons in
          (* start another ensemble only if it should end within [seconds] *)
          if now () -. start +. dt <= seconds then loop lat jsons else (lat, jsons)
        in
        loop [] [])
  in
  List.iter
    (fun j -> check "Ensemble.to_json identical at jobs=1 and jobs=nproc" (j = one))
    jsons;
  let ms = List.map (fun x -> 1000. *. x) lat in
  ( [
      ("setup_s", setup);
      ("latency_p50_ms", median ms);
      ("latency_p90_ms", quantile 0.9 ms);
      ("jobs_per_s", float_of_int (replicates * List.length lat) /. sum lat);
      ("peak_rss_mb", peak_rss_mb "self");
    ],
    [ ("samples", List.length lat) ] )

(* The traced pass: Ensemble.run taken apart into the public calls it
   makes, on the calling domain — the circuit's assembly, Seeds.derive,
   Compiled.compile, then per replicate Sim.run_compiled_rng,
   Analyzer.run and Verify.against, then Ensemble.aggregate. *)
let traced_pass tr live cfg =
  let c = span tr "gates.assembly" circuit in
  let protocol = cfg.Ensemble.protocol in
  let rngs = span tr "engine.seeds" (fun () -> Seeds.derive ~seed:cfg.Ensemble.seed replicates) in
  let compiled = span tr "ssa.compile" (fun () -> Compiled.compile (Circuit.model c)) in
  let events = Experiment.input_schedule protocol c in
  let sim_cfg =
    Sim.config ~dt:protocol.Protocol.dt ~algorithm:protocol.Protocol.algorithm
      ~t_end:protocol.Protocol.total_time ()
  in
  let params = { Analyzer.threshold = protocol.Protocol.threshold; fov_ud = cfg.Ensemble.fov_ud } in
  let reps =
    Array.to_list
      (Array.mapi
         (fun i rng ->
           let trace, _ =
             span tr "ssa.trajectory" (fun () ->
                 Sim.run_compiled_rng ~events ~metrics:live ~rng sim_cfg compiled)
           in
           let r =
             span tr "core.analyze" (fun () ->
                 Analyzer.run ~params
                   { Analyzer.trace; inputs = c.Circuit.inputs; output = c.Circuit.output })
           in
           let v = span tr "core.verify" (fun () -> Verify.against ~expected:c.Circuit.expected r) in
           { Ensemble.rep_index = i; rep_result = r; rep_verify = v })
         rngs)
  in
  span tr "engine.aggregate" (fun () ->
      Ensemble.aggregate ~name:c.Circuit.name ~seed:cfg.Ensemble.seed ~requested:replicates
        ~expected:c.Circuit.expected ~replicates:reps ~failures:[])

let traced ~work ~seed =
  let c = circuit () and cfg = config seed in
  let ensemble_s, reference =
    Pool.with_pool ~jobs:nproc (fun pool ->
        let dt, t = timed pool cfg c in
        check_ensemble t;
        (dt, Ensemble.to_json t))
  in
  let pass tr live =
    let t0 = now () in
    let t = traced_pass tr live cfg in
    check "serial decomposition renders Ensemble.run's bytes" (Ensemble.to_json t = reference);
    now () -. t0
  in
  (* untraced, traced, traced, untraced: the machine's drift over the
     four passes cancels out of the overhead ratio *)
  let untraced () = pass (trace ~on:false ()) Metrics.noop in
  let u1 = untraced () in
  let tr = trace () and live = Metrics.create () in
  let traced_wall = pass tr live in
  let t2 = pass (trace ()) (Metrics.create ()) in
  let u2 = untraced () in
  write_spans tr (Filename.concat work "spans.jsonl");
  (* the pool's own busy time per task under nproc-way contention *)
  let pool_metrics = Metrics.create () in
  Pool.with_pool ~jobs:nproc ~metrics:pool_metrics (fun pool ->
      check_ensemble (Ensemble.run ~pool ~metrics:pool_metrics cfg c));
  let busy = Metrics.histogram pool_metrics "pool.worker_busy_seconds" in
  let busy_per_task = Metrics.Histogram.sum busy /. float_of_int (Metrics.Histogram.count busy) in
  let counter m name = float_of_int (Metrics.Counter.value (Metrics.counter m name)) in
  let fired = counter live "ssa.reactions_fired" in
  let trajectory = durations tr "ssa.trajectory" in
  let per_replicate =
    (sum trajectory +. total tr "core.analyze" +. total tr "core.verify")
    /. float_of_int replicates
  in
  let steps_words = sum (List.map (fun s -> s.s_words) (spans_named tr "ssa.trajectory")) in
  ( [
      ("gates.assembly_s", total tr "gates.assembly");
      ("gates.assembly_alloc_words", words_per_call tr "gates.assembly");
      ("ssa.compile_s", total tr "ssa.compile");
      ("ssa.compile_alloc_words", words_per_call tr "ssa.compile");
      ("ssa.trajectory_s", median trajectory);
      ("ssa.reactions_fired", fired);
      ("ssa.steps_per_s", fired /. sum trajectory);
      ("ssa.alloc_words_per_step", steps_words /. fired);
      ("ssa.recorder_observes_per_step", counter live "ssa.recorder_observes" /. fired);
      ("core.analyze_s", median (durations tr "core.analyze"));
      ("core.analyze_alloc_words", words_per_call tr "core.analyze");
      ("core.verify_s", median (durations tr "core.verify"));
      ("core.verify_alloc_words", words_per_call tr "core.verify");
      ("engine.aggregate_s", total tr "engine.aggregate");
      ("engine.aggregate_alloc_words", words_per_call tr "engine.aggregate");
      ("engine.replicates_ok", counter pool_metrics "engine.replicates_ok");
      ("engine.parallel_efficiency",
        per_replicate *. float_of_int replicates /. (ensemble_s *. float_of_int nproc));
      ("engine.contention_ratio", busy_per_task /. per_replicate);
    ]
    @ ("bench.trace_overhead", (traced_wall +. t2) /. (u1 +. u2))
      :: coverage_metrics tr ~traced_wall,
    [ ("spans", List.length tr.spans) ] )
