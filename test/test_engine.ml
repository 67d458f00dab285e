(* Tests for glc_engine: counter-based seed derivation, the domain pool,
   ensemble statistics, the compiled-model cache, and the determinism
   and degradation guarantees of ensemble verification. *)

module Rng = Glc_ssa.Rng
module Truth_table = Glc_logic.Truth_table
module Circuits = Glc_gates.Circuits
module Cello = Glc_gates.Cello
module Protocol = Glc_dvasim.Protocol
module Seeds = Glc_engine.Seeds
module Pool = Glc_engine.Pool
module Stats = Glc_engine.Stats
module Cache = Glc_engine.Cache
module Progress = Glc_engine.Progress
module Ensemble = Glc_engine.Ensemble

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)
let checks = Alcotest.check Alcotest.string

(* a cheap protocol: every combination still gets a full-delay slot *)
let quick_protocol ~arity =
  Protocol.make
    ~total_time:(1_000. *. float_of_int (1 lsl arity))
    ~hold_time:1_000. ()

(* ---- seeds ---- *)

let stream_prefix rng n =
  let r = Rng.copy rng in
  List.init n (fun _ -> Rng.bits64 r)

let test_seeds_deterministic () =
  let a = Seeds.derive ~seed:7 5 and b = Seeds.derive ~seed:7 5 in
  for i = 0 to 4 do
    checkb "same stream" true
      (stream_prefix a.(i) 50 = stream_prefix b.(i) 50)
  done;
  let c = Seeds.derive ~seed:8 5 in
  checkb "seed-sensitive" false
    (stream_prefix a.(0) 50 = stream_prefix c.(0) 50)

let test_seeds_prefix_stable () =
  (* counter-based: stream i never depends on how many streams exist *)
  let small = Seeds.derive ~seed:42 3 and big = Seeds.derive ~seed:42 64 in
  for i = 0 to 2 do
    checkb "prefix stable" true
      (stream_prefix small.(i) 100 = stream_prefix big.(i) 100)
  done;
  checkb "replicate agrees with derive" true
    (stream_prefix (Seeds.replicate ~seed:42 2) 100
    = stream_prefix big.(2) 100)

let test_seeds_distinct () =
  let streams = Seeds.derive ~seed:1 32 in
  let seen = Hashtbl.create 1024 in
  Array.iteri
    (fun i rng ->
      List.iter
        (fun v ->
          (match Hashtbl.find_opt seen v with
          | Some j when j <> i -> Alcotest.failf "streams %d/%d collide" i j
          | _ -> ());
          Hashtbl.replace seen v i)
        (stream_prefix rng 100))
    streams

let test_seeds_validation () =
  Alcotest.check_raises "negative count"
    (Invalid_argument "Seeds.derive: negative count") (fun () ->
      ignore (Seeds.derive ~seed:1 (-1)))

(* ---- pool ---- *)

let test_pool_map () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let results =
            Pool.map p (fun i x -> (i * 10) + x) (Array.init 100 Fun.id)
          in
          Array.iteri
            (fun i r ->
              match r with
              | Ok v -> checki "slot value" ((i * 10) + i) v
              | Error _ -> Alcotest.fail "unexpected task error")
            results))
    [ 1; 2; 4 ]

let test_pool_capture () =
  Pool.with_pool ~jobs:2 (fun p ->
      let results =
        Pool.map p
          (fun i () -> if i mod 3 = 1 then failwith "boom" else i)
          (Array.make 9 ())
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v ->
              checkb "survivor" true (i mod 3 <> 1);
              checki "survivor value" i v
          | Error (e : Pool.error) ->
              checkb "failer" true (i mod 3 = 1);
              checki "error index" i e.Pool.task;
              checkb "message mentions exception" true
                (String.length e.Pool.message > 0))
        results;
      (* the pool survives failures and can run more work *)
      match Pool.map p (fun _ x -> x + 1) [| 1 |] with
      | [| Ok 2 |] -> ()
      | _ -> Alcotest.fail "pool unusable after captured failure")

let test_pool_lifecycle () =
  let p = Pool.create ~jobs:2 () in
  checki "jobs" 2 (Pool.jobs p);
  checkb "empty map" true (Pool.map p (fun _ x -> x) [||] = [||]);
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  (match Pool.map p (fun _ x -> x) [| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "map after shutdown must fail");
  Alcotest.check_raises "jobs < 1"
    (Invalid_argument "Pool.create: jobs < 1") (fun () ->
      ignore (Pool.create ~jobs:0 ()))

(* ---- stats ---- *)

let test_stats_summary () =
  let s = Stats.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  checki "n" 8 s.Stats.n;
  checkf 1e-9 "mean" 5. s.Stats.mean;
  checkf 1e-6 "sd" 2.13809 s.Stats.sd;
  checkf 1e-6 "ci95" (1.96 *. 2.13809 /. sqrt 8.) s.Stats.ci95;
  checkf 1e-9 "min" 2. s.Stats.min;
  checkf 1e-9 "max" 9. s.Stats.max;
  let empty = Stats.of_list [] in
  checki "empty n" 0 empty.Stats.n;
  checkf 1e-9 "empty mean" 0. empty.Stats.mean;
  let one = Stats.of_list [ 3. ] in
  checkf 1e-9 "singleton sd" 0. one.Stats.sd;
  checkf 1e-9 "singleton ci" 0. one.Stats.ci95

let test_stats_dispersion_options () =
  (* the 0/1-replicate cases: no dispersion estimate exists, and the
     option forms must say so instead of leaning on the summary's zero
     sentinels *)
  checkb "variance of [] is None" true (Stats.variance [||] = None);
  checkb "sd of [] is None" true (Stats.sd [||] = None);
  checkb "variance of singleton is None" true (Stats.variance [| 5. |] = None);
  checkb "sd of singleton is None" true (Stats.sd [| 5. |] = None);
  (match Stats.variance [| 1.; 3. |] with
  | Some v -> checkf 1e-12 "variance of pair" 2. v
  | None -> Alcotest.fail "pair has a variance");
  (match Stats.sd [| 1.; 3. |] with
  | Some v -> checkf 1e-12 "sd of pair" (sqrt 2.) v
  | None -> Alcotest.fail "pair has an sd");
  (* the summary sentinels stay total and zero for n < 2 *)
  let zero = Stats.of_array [||] and one = Stats.of_array [| 5. |] in
  checkf 1e-12 "empty summary sd" 0. zero.Stats.sd;
  checkf 1e-12 "singleton summary sd" 0. one.Stats.sd;
  checkf 1e-12 "singleton summary ci95" 0. one.Stats.ci95;
  let two = Stats.of_array [| 1.; 3. |] in
  checkf 1e-12 "pair summary sd" (sqrt 2.) two.Stats.sd

let test_stats_ci_shrinks () =
  (* draws from one distribution: quadrupling the sample count must
     roughly halve the confidence interval *)
  let rng = Rng.create 99 in
  let sample n = Array.init n (fun _ -> 50. +. (3. *. Rng.gaussian rng)) in
  let small = Stats.of_array (sample 100) in
  let large = Stats.of_array (sample 400) in
  checkb "ci shrinks" true (large.Stats.ci95 < small.Stats.ci95);
  checkf 0.3 "roughly halves" 0.5 (large.Stats.ci95 /. small.Stats.ci95)

(* ---- cache ---- *)

let test_cache () =
  let cache = Cache.create () in
  let builds = ref 0 in
  let build () =
    incr builds;
    Glc_gates.Circuit.model (Circuits.genetic_not ())
  in
  let a = Cache.compiled cache ~key:"genetic_NOT" build in
  let b = Cache.compiled cache ~key:"genetic_NOT" build in
  checkb "same compilation" true (a == b);
  checki "built once" 1 !builds;
  checki "hits" 1 (Cache.hits cache);
  checki "misses" 1 (Cache.misses cache);
  ignore (Cache.compiled cache ~key:"other" build);
  checki "distinct keys build" 2 !builds;
  Cache.clear cache;
  ignore (Cache.compiled cache ~key:"genetic_NOT" build);
  checki "rebuilt after clear" 3 !builds

let test_cache_concurrent () =
  (* Four domains race on the same key. The cache holds its lock across
     the miss's compile, so exactly one build must happen and everyone
     must get the same physical compilation. *)
  let cache = Cache.create () in
  let builds = Atomic.make 0 in
  let gate = Atomic.make false in
  let build () =
    Atomic.incr builds;
    Glc_gates.Circuit.model (Circuits.genetic_not ())
  in
  let worker () =
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done;
    Cache.compiled cache ~key:"genetic_NOT" build
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  Atomic.set gate true;
  let results = List.map Domain.join domains in
  checki "built once" 1 (Atomic.get builds);
  checki "misses" 1 (Cache.misses cache);
  checki "hits" 3 (Cache.hits cache);
  match results with
  | first :: rest ->
      List.iteri
        (fun i c ->
          checkb (Printf.sprintf "domain %d shares the compilation" (i + 1))
            true (c == first))
        rest
  | [] -> Alcotest.fail "no results"

(* Regression: two circuits with the SAME name but different kinetics
   must not share a compilation. Keying the cache by name alone served
   the first circuit's model to the second; model_key folds a content
   fingerprint into the key. *)
let perturbed_genetic_not () =
  let base = Circuits.genetic_not () in
  Glc_gates.Circuit.make ~name:base.Glc_gates.Circuit.name
    ~document:base.Glc_gates.Circuit.document
    ~inputs:base.Glc_gates.Circuit.inputs
    ~output:base.Glc_gates.Circuit.output
    ~expected:base.Glc_gates.Circuit.expected
    ~promoter_kinetics:
      [
        ( "P1",
          { Glc_sbol.To_model.default_kinetics with Glc_sbol.To_model.ymax = 9. }
        );
      ]
    ~regulator_affinity:base.Glc_gates.Circuit.regulator_affinity ()

let test_cache_fingerprint () =
  let base = Circuits.genetic_not () in
  let variant = perturbed_genetic_not () in
  let mb = Glc_gates.Circuit.model base in
  let mv = Glc_gates.Circuit.model variant in
  checks "fingerprint deterministic" (Cache.fingerprint mb)
    (Cache.fingerprint (Glc_gates.Circuit.model base));
  checkb "same name, different kinetics -> different fingerprints" false
    (String.equal (Cache.fingerprint mb) (Cache.fingerprint mv));
  checkb "model_key embeds the name" true
    (contains (Cache.model_key ~name:"genetic_NOT" mb) "genetic_NOT");
  let cache = Cache.create () in
  let a =
    Cache.compiled cache
      ~key:(Cache.model_key ~name:"genetic_NOT" mb)
      (fun () -> mb)
  in
  let b =
    Cache.compiled cache
      ~key:(Cache.model_key ~name:"genetic_NOT" mv)
      (fun () -> mv)
  in
  checkb "distinct compilations" true (a != b);
  checki "two misses, no collision" 2 (Cache.misses cache);
  checki "no false hit" 0 (Cache.hits cache)

(* ---- ensemble ---- *)

let not_config ?(replicates = 6) ?(jobs = 1) () =
  Ensemble.config ~replicates ~jobs ~seed:7
    ~protocol:(quick_protocol ~arity:1) ()

let test_ensemble_jobs_determinism () =
  (* the acceptance contract: byte-identical reports for any worker
     count *)
  let circuit = Circuits.genetic_not () in
  let reference =
    Ensemble.to_json (Ensemble.run (not_config ~jobs:1 ()) circuit)
  in
  List.iter
    (fun jobs ->
      let t = Ensemble.run (not_config ~jobs ()) circuit in
      checks
        (Printf.sprintf "jobs=%d matches jobs=1" jobs)
        reference (Ensemble.to_json t))
    [ 2; 4 ]

let test_ensemble_prefix_stability () =
  (* counter-based derivation end to end: replicate i of a small
     ensemble is replicate i of a larger one *)
  let circuit = Circuits.genetic_not () in
  let small = Ensemble.run (not_config ~replicates:3 ()) circuit in
  let large = Ensemble.run (not_config ~replicates:6 ()) circuit in
  Array.iteri
    (fun i (rep : Ensemble.replicate) ->
      checkf 1e-12 "same replicate fitness"
        large.Ensemble.replicates.(i).Ensemble.rep_result
          .Glc_core.Analyzer.fitness
        rep.Ensemble.rep_result.Glc_core.Analyzer.fitness)
    small.Ensemble.replicates

let test_ensemble_consensus_genetic_and () =
  let circuit = Circuits.genetic_and () in
  let cfg =
    Ensemble.config ~replicates:3 ~jobs:2 ~seed:7
      ~protocol:(quick_protocol ~arity:2) ()
  in
  let t = Ensemble.run cfg circuit in
  checki "all replicates completed" 3 (Array.length t.Ensemble.replicates);
  checkb "consensus equals intent" true
    (Truth_table.equal t.Ensemble.consensus circuit.Glc_gates.Circuit.expected);
  checkb "consensus verified" true t.Ensemble.consensus_verified;
  checkb "fitness sane" true
    (t.Ensemble.fitness.Stats.mean > 50.
    && t.Ensemble.fitness.Stats.mean <= 100.)

let test_ensemble_consensus_0x1C () =
  let circuit = Cello.circuit_0x1C () in
  let cfg =
    Ensemble.config ~replicates:3 ~jobs:2 ~seed:7
      ~protocol:(quick_protocol ~arity:3) ()
  in
  let t = Ensemble.run cfg circuit in
  checki "consensus code" 0x1C (Truth_table.to_code t.Ensemble.consensus);
  checkb "consensus verified" true t.Ensemble.consensus_verified

let test_ensemble_ci_shrinks () =
  (* more replicates -> tighter confidence interval on PFoBE. The seeds
     are fixed, so this is a deterministic check, not a flaky one;
     genetic_AND (unlike genetic_NOT on this short protocol) has real
     replicate-to-replicate fitness variance. *)
  let circuit = Circuits.genetic_and () in
  let ci replicates =
    let cfg =
      Ensemble.config ~replicates ~jobs:1 ~seed:7
        ~protocol:(quick_protocol ~arity:2) ()
    in
    (Ensemble.run cfg circuit).Ensemble.fitness.Stats.ci95
  in
  let small = ci 4 and large = ci 16 in
  checkb "ci positive" true (large > 0.);
  checkb "ci shrinks with replicates" true (large < small)

let test_ensemble_degradation () =
  (* aggregate over a mix of completed and failed replicates: the
     failures are reported, the statistics cover the survivors *)
  let circuit = Circuits.genetic_not () in
  let full = Ensemble.run (not_config ~replicates:4 ()) circuit in
  let survivors =
    List.filteri
      (fun i _ -> i <> 2)
      (Array.to_list full.Ensemble.replicates)
  in
  let t =
    Ensemble.aggregate ~name:full.Ensemble.name ~seed:7 ~requested:4
      ~expected:full.Ensemble.expected ~replicates:survivors
      ~failures:
        [ { Ensemble.fail_index = 2; fail_error = "Failure(\"boom\")" } ]
  in
  checki "survivors" 3 (Array.length t.Ensemble.replicates);
  checki "failures" 1 (Array.length t.Ensemble.failures);
  checki "requested unchanged" 4 t.Ensemble.requested;
  checki "fitness over survivors" 3 t.Ensemble.fitness.Stats.n;
  checkb "consensus still verified" true t.Ensemble.consensus_verified;
  checkb "failure in report" true
    (contains (Ensemble.to_json t) "\"failures\":[{\"index\":2")

let test_ensemble_empty_aggregate () =
  (* every replicate failed: degraded but well-formed *)
  let expected = Truth_table.of_minterms ~arity:1 [ 0 ] in
  let t =
    Ensemble.aggregate ~name:"dead" ~seed:1 ~requested:2 ~expected
      ~replicates:[]
      ~failures:
        [
          { Ensemble.fail_index = 0; fail_error = "a" };
          { Ensemble.fail_index = 1; fail_error = "b" };
        ]
  in
  checki "no survivors" 0 (Array.length t.Ensemble.replicates);
  checki "fitness n" 0 t.Ensemble.fitness.Stats.n;
  checkb "all-failed consensus is constant-0" true
    (Truth_table.to_code t.Ensemble.consensus = 0);
  checkb "not verified" false t.Ensemble.consensus_verified;
  ignore (Ensemble.to_json t);
  ignore (Format.asprintf "%a" Ensemble.pp t)

let test_ensemble_single_replicate () =
  (* n = 1: consensus degenerates to that replicate's vote, and the
     fitness summary reports sd = ci95 = 0 (the documented sentinel —
     Stats.sd/variance return None for the same data) *)
  let circuit = Circuits.genetic_not () in
  let t = Ensemble.run (not_config ~replicates:1 ()) circuit in
  checki "one replicate" 1 (Array.length t.Ensemble.replicates);
  checki "fitness n" 1 t.Ensemble.fitness.Stats.n;
  checkf 1e-12 "fitness sd sentinel" 0. t.Ensemble.fitness.Stats.sd;
  checkf 1e-12 "fitness ci95 sentinel" 0. t.Ensemble.fitness.Stats.ci95;
  checkb "consensus verified" true t.Ensemble.consensus_verified;
  Array.iter
    (fun (c : Ensemble.case_summary) ->
      checkb "no flake with one voter" false c.Ensemble.cs_flaky;
      checkf 1e-12 "agreement unanimous" 1. c.Ensemble.cs_agreement)
    t.Ensemble.cases;
  ignore (Ensemble.to_json t);
  ignore (Format.asprintf "%a" Ensemble.pp t)

let test_ensemble_flaky_report () =
  (* hand-built disagreement: 2 of 3 replicates say minterm, one says
     not -> consensus keeps it, the row is reported flaky *)
  let circuit = Circuits.genetic_not () in
  let base = Ensemble.run (not_config ~replicates:3 ()) circuit in
  (* genetic_NOT: all replicates agree (row 0 high). Flip replicate 2's
     extracted logic by re-verifying it against a doctored analysis. *)
  let doctored =
    let rep = base.Ensemble.replicates.(2) in
    let r = rep.Ensemble.rep_result in
    let r' =
      {
        r with
        Glc_core.Analyzer.minterms = [];
        cases =
          Array.map
            (fun (c : Glc_core.Analyzer.case_stats) ->
              { c with Glc_core.Analyzer.included = false })
            r.Glc_core.Analyzer.cases;
      }
    in
    {
      rep with
      Ensemble.rep_result = r';
      rep_verify =
        Glc_core.Verify.against ~expected:base.Ensemble.expected r';
    }
  in
  let reps =
    [ base.Ensemble.replicates.(0); base.Ensemble.replicates.(1); doctored ]
  in
  let t =
    Ensemble.aggregate ~name:"flaky" ~seed:7 ~requested:3
      ~expected:base.Ensemble.expected ~replicates:reps ~failures:[]
  in
  checkb "row 0 flaky" true (List.mem 0 t.Ensemble.flaky);
  checkb "majority still wins" true t.Ensemble.consensus_verified;
  let c = t.Ensemble.cases.(0) in
  checki "votes" 2 c.Ensemble.cs_minterm_votes;
  checkf 1e-9 "agreement" (2. /. 3.) c.Ensemble.cs_agreement;
  checkb "flagged" true c.Ensemble.cs_flaky

let test_ensemble_progress () =
  let events = ref [] in
  let progress =
    Progress.callback (fun ev -> events := ev :: !events)
  in
  let circuit = Circuits.genetic_not () in
  ignore (Ensemble.run ~progress (not_config ~replicates:4 ()) circuit);
  checki "one event per replicate" 4 (List.length !events);
  List.iter
    (function
      | Progress.Replicate_ok _ -> ()
      | Progress.Replicate_failed (i, e) ->
          Alcotest.failf "replicate %d failed: %s" i e)
    !events

let test_ensemble_cache_shared () =
  let cache = Cache.create () in
  let circuit = Circuits.genetic_not () in
  let cfg = not_config ~replicates:2 () in
  ignore (Ensemble.run ~cache cfg circuit);
  ignore (Ensemble.run ~cache cfg circuit);
  checki "compiled once across ensembles" 1 (Cache.misses cache);
  checki "second ensemble hits" 1 (Cache.hits cache)

let test_ensemble_cache_no_name_collision () =
  (* end-to-end form of the model_key regression: same cache, two
     same-name circuits with different kinetics -> two compilations and
     different verdict data, not a silent reuse of the first model *)
  let cache = Cache.create () in
  let cfg = not_config ~replicates:2 () in
  let t1 = Ensemble.run ~cache cfg (Circuits.genetic_not ()) in
  let t2 = Ensemble.run ~cache cfg (perturbed_genetic_not ()) in
  checki "both variants compiled" 2 (Cache.misses cache);
  checki "no false hit" 0 (Cache.hits cache);
  checkb "perturbed kinetics change the data" false
    (String.equal (Ensemble.to_json t1) (Ensemble.to_json t2))

let test_ensemble_validation () =
  Alcotest.check_raises "replicates < 1"
    (Invalid_argument "Ensemble.config: replicates < 1") (fun () ->
      ignore (Ensemble.config ~replicates:0 ()));
  Alcotest.check_raises "jobs < 0"
    (Invalid_argument "Ensemble.config: jobs < 0") (fun () ->
      ignore (Ensemble.config ~jobs:(-1) ()))

let () =
  Alcotest.run "glc_engine"
    [
      ( "seeds",
        [
          Alcotest.test_case "deterministic" `Quick test_seeds_deterministic;
          Alcotest.test_case "prefix stable" `Quick test_seeds_prefix_stable;
          Alcotest.test_case "streams distinct" `Quick test_seeds_distinct;
          Alcotest.test_case "validation" `Quick test_seeds_validation;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map" `Quick test_pool_map;
          Alcotest.test_case "exception capture" `Quick test_pool_capture;
          Alcotest.test_case "lifecycle" `Quick test_pool_lifecycle;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "dispersion options, n=0/1/2" `Quick
            test_stats_dispersion_options;
          Alcotest.test_case "ci shrinks" `Quick test_stats_ci_shrinks;
        ] );
      ( "cache",
        [
          Alcotest.test_case "memoizes" `Quick test_cache;
          Alcotest.test_case "concurrent same-key" `Quick
            test_cache_concurrent;
          Alcotest.test_case "fingerprint keying" `Quick
            test_cache_fingerprint;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "jobs determinism" `Slow
            test_ensemble_jobs_determinism;
          Alcotest.test_case "prefix stability" `Slow
            test_ensemble_prefix_stability;
          Alcotest.test_case "consensus genetic_AND" `Slow
            test_ensemble_consensus_genetic_and;
          Alcotest.test_case "consensus 0x1C" `Slow
            test_ensemble_consensus_0x1C;
          Alcotest.test_case "ci shrinks with replicates" `Slow
            test_ensemble_ci_shrinks;
          Alcotest.test_case "failed-replicate degradation" `Quick
            test_ensemble_degradation;
          Alcotest.test_case "single replicate" `Quick
            test_ensemble_single_replicate;
          Alcotest.test_case "all replicates failed" `Quick
            test_ensemble_empty_aggregate;
          Alcotest.test_case "flaky minterm report" `Quick
            test_ensemble_flaky_report;
          Alcotest.test_case "progress events" `Quick
            test_ensemble_progress;
          Alcotest.test_case "cache shared" `Quick
            test_ensemble_cache_shared;
          Alcotest.test_case "no same-name cache collision" `Quick
            test_ensemble_cache_no_name_collision;
          Alcotest.test_case "validation" `Quick test_ensemble_validation;
        ] );
    ]
