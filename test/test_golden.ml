(* Golden bytes of every persisted or served JSON document. Each case
   renders one fixed input and compares it with a literal: stored
   results, manifests, journals and certificates are compared byte for
   byte across kill+resume and across versions, so any change in how
   JSON is encoded must show up here first. A literal is never edited
   to make a case pass — a mismatch is a regression in the writer. *)

module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Journal = Glc_campaign.Journal
module Runner = Glc_campaign.Runner
module Ensemble = Glc_engine.Ensemble
module Certificate = Glc_symbolic.Certificate
module Circuit = Glc_gates.Circuit
module Benchmarks = Glc_gates.Benchmarks
module Protocol = Glc_dvasim.Protocol
module Lint = Glc_lint.Lint
module D = Glc_lint.Diagnostic
module Jobstate = Glc_serve.Jobstate
module Atlas = Glc_space.Atlas
module Evolve = Glc_space.Evolve

(* ---- scratch directories ---- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "glc-golden-test-%d-%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- fixtures ---- *)

let not_gate = Option.get (Benchmarks.find "genetic_NOT")
let short = Protocol.make ~total_time:2000. ~hold_time:1000. ()

let spec =
  Grid.spec ~seed:42 ~total_time:2000. ~hold_time:1000.
    (Grid.make ~fov_uds:[ 0.25; 0.1 ] ~input_highs:[ None; Some 20.5 ]
       ~replicate_counts:[ 2 ] [ "genetic_NOT" ])

let job = List.hd (Grid.expand spec.Grid.grid)
let last_job = List.nth (Grid.expand spec.Grid.grid) 3
let job_seed = Grid.job_seed ~seed:42 job

(* a 2-replicate ensemble, plus one captured failure whose message needs
   escaping *)
let ensemble =
  let t =
    Ensemble.run
      (Ensemble.config ~replicates:2 ~jobs:1 ~seed:job_seed ~protocol:short ())
      not_gate
  in
  Ensemble.aggregate ~name:t.Ensemble.name ~seed:t.Ensemble.seed ~requested:3
    ~expected:t.Ensemble.expected
    ~replicates:(Array.to_list t.Ensemble.replicates)
    ~failures:
      [ { Ensemble.fail_index = 2; fail_error = "Failure(\"boom\")\n\tat x" } ]

(* an unbounded output: with no degradation the interval analysis can
   give no finite upper bound, so [hi] is infinite *)
let unbounded_certificate =
  let p = Protocol.default in
  Certificate.certify_model ~threshold:p.Protocol.threshold
    ~input_high:p.Protocol.input_high ~input_low:p.Protocol.input_low
    ~inputs:not_gate.Circuit.inputs ~output:not_gate.Circuit.output
    ~expected:not_gate.Circuit.expected
    (Circuit.model ~degradation:0. not_gate)

let cases =
  [
    ( "runner certified document",
      {golden|{"id":"genetic_NOT-7a7f6e4056542e5e","circuit":"genetic_NOT","threshold":15,"fov_ud":0.25,"input_high":null,"replicates":2,"seed":3523800902851392000,"provenance":"certified","certified_rows":2,"total_rows":2,"verified":true,"fitness_mean":100,"certificate":{"circuit":"genetic_NOT","output":"GFP","arity":1,"threshold":15,"margin":4,"rows":[{"row":0,"combination":"0","lo":100,"hi":100,"verdict":"proved_high","expected":true,"agrees":true,"iterations":2,"converged":true},{"row":1,"combination":"1","lo":3.3864400846797515,"hi":3.3864400846797515,"verdict":"proved_low","expected":false,"agrees":true,"iterations":2,"converged":true}],"proved":2,"undecided":0,"verified":true}}|golden},
      fun () ->
        Runner.certified_document ~seed:job_seed job
          (Certificate.certify ~protocol:short not_gate) );
    ( "runner job document",
      {golden|{"id":"genetic_NOT-3e6f11d1bf8d4e04","circuit":"genetic_NOT","threshold":15,"fov_ud":0.1,"input_high":20.5,"replicates":2,"seed":4005392654237206619,"provenance":"simulated","certified_rows":2,"total_rows":2,"verified":true,"fitness_mean":99.95,"ensemble":{"circuit":"genetic_NOT","arity":1,"seed":3523800902851392000,"requested":3,"completed":2,"failed":1,"expected_code":1,"consensus_code":1,"consensus_verified":true,"verified_count":2,"fitness":{"n":2,"mean":99.95,"sd":0,"ci95":0,"min":99.95,"max":99.95},"flaky_rows":[],"cases":[{"row":0,"combination":"0","minterm_votes":2,"consensus":true,"agreement":1,"flaky":false,"fov":{"n":2,"mean":0.001,"sd":0,"ci95":0,"min":0.001,"max":0.001}},{"row":1,"combination":"1","minterm_votes":0,"consensus":false,"agreement":1,"flaky":false,"fov":{"n":2,"mean":0.000999000999000999,"sd":0,"ci95":0,"min":0.000999000999000999,"max":0.000999000999000999}}],"replicates":[{"index":0,"fitness":99.95,"verified":true,"extracted_code":1,"minterms":[0]},{"index":1,"fitness":99.95,"verified":true,"extracted_code":1,"minterms":[0]}],"failures":[{"index":2,"error":"Failure(\"boom\")\n\tat x"}]}}|golden},
      fun () ->
        Runner.job_document
          ~certificate:(Certificate.certify ~protocol:short not_gate)
          ~seed:(Grid.job_seed ~seed:42 last_job)
          last_job ensemble );
    ( "store report",
      {golden|{"campaign":{"seed":42,"total_time":2000,"hold_time":1000},"totals":{"jobs":4,"done":2,"missing":2,"verified":2},"jobs":[{"id":"genetic_NOT-7a7f6e4056542e5e","circuit":"genetic_NOT","threshold":15,"fov_ud":0.25,"input_high":null,"replicates":2,"status":"done","provenance":"certified","certified_rows":2,"total_rows":2,"verified":true,"verified_count":0,"completed":0,"failed":0,"fitness_mean":100},{"id":"genetic_NOT-a82876920170ec3a","circuit":"genetic_NOT","threshold":15,"fov_ud":0.25,"input_high":20.5,"replicates":2,"status":"missing"},{"id":"genetic_NOT-d89b71a1f5a48610","circuit":"genetic_NOT","threshold":15,"fov_ud":0.1,"input_high":null,"replicates":2,"status":"missing"},{"id":"genetic_NOT-3e6f11d1bf8d4e04","circuit":"genetic_NOT","threshold":15,"fov_ud":0.1,"input_high":20.5,"replicates":2,"status":"done","provenance":"simulated","certified_rows":0,"total_rows":0,"verified":true,"verified_count":2,"completed":2,"failed":1,"fitness_mean":99.95}]}|golden},
      fun () ->
        with_dir (fun dir ->
            let store =
              Result.get_ok (Store.create ~dir (Grid.spec_to_json spec))
            in
            Store.put store ~id:(Grid.job_id job)
              (Runner.certified_document ~seed:job_seed job
                 (Certificate.certify ~protocol:short not_gate));
            Store.put store ~id:(Grid.job_id last_job)
              (Runner.job_document ~seed:job_seed last_job ensemble);
            Store.report_json store spec) );
    ( "grid manifest, ids and seeds",
      {golden|{"version":1,"seed":7,"total_time":10000,"hold_time":1000,"grid":{"circuits":["0x1C","a \"b\""],"thresholds":[15,0.1,1e-07],"fov_uds":[0.25],"input_highs":[null,1e+20],"replicate_counts":[1,16]}}
genetic_NOT-7a7f6e4056542e5e 3523800902851392000
genetic_NOT-a82876920170ec3a 1823177357466732225
genetic_NOT-d89b71a1f5a48610 3154644581660029379
genetic_NOT-3e6f11d1bf8d4e04 4005392654237206619|golden},
      fun () ->
        String.concat "\n"
          (Grid.spec_to_json
             (Grid.spec ~seed:7 ~total_time:1e4 ~hold_time:1e3
                (Grid.make ~thresholds:[ 15.; 0.1; 1e-7 ]
                   ~fov_uds:[ 0.25 ] ~input_highs:[ None; Some 1e20 ]
                   ~replicate_counts:[ 1; 16 ] [ "0x1C"; "a \"b\"" ]))
          :: List.map
               (fun j ->
                 Printf.sprintf "%s %d" (Grid.job_id j)
                   (Grid.job_seed ~seed:42 j))
               (Grid.expand spec.Grid.grid)) );
    ( "journal lines",
      {golden|{"event":"scheduled","job":"a-1"}
{"event":"started","job":"a-1"}
{"event":"done","job":"a-1"}
{"event":"failed","job":"b\"2","error":"Failure(\"x\")\n\t\u0001"}
|golden},
      fun () ->
        with_dir (fun dir ->
            let j = Journal.open_ ~dir in
            List.iter (Journal.append j)
              [
                Journal.Scheduled "a-1";
                Journal.Started "a-1";
                Journal.Done "a-1";
                Journal.Failed ("b\"2", "Failure(\"x\")\n\t\001");
              ];
            Journal.close j;
            read_file (Filename.concat dir "journal.jsonl")) );
    ( "certificate with an infinite bound",
      {golden|{"circuit":"genetic_NOT","output":"GFP","arity":1,"threshold":15,"margin":4,"rows":[{"row":0,"combination":"0","lo":0,"hi":"inf","verdict":"undecided","expected":true,"agrees":null,"iterations":1,"converged":true},{"row":1,"combination":"1","lo":0,"hi":"inf","verdict":"undecided","expected":false,"agrees":null,"iterations":1,"converged":true}],"proved":0,"undecided":2,"verified":null}|golden},
      fun () -> Certificate.to_json unbounded_certificate );
    ( "lint report",
      {golden|{"files":[{"file":"models/x\\y.xml","errors":1,"warnings":1,"diagnostics":[{"code":"GLC002","severity":"error","subject":{"kind":"species","id":"G\"FP"},"message":"no \"degradation\"\n"},{"code":"GLC007","severity":"warning","subject":{"kind":"reaction","id":"r1"},"message":"tab\there"}]},{"file":"clean.xml","errors":0,"warnings":0,"diagnostics":[]}],"summary":{"files":2,"errors":1,"warnings":1,"exit":2}}|golden},
      fun () ->
        Lint.report_json
          [
            {
              Lint.fr_path = "models/x\\y.xml";
              fr_diagnostics =
                [
                  D.make ~code:"GLC002" ~severity:D.Error
                    ~subject:(D.Species "G\"FP") "no \"degradation\"\n";
                  D.make ~code:"GLC007" ~severity:D.Warning
                    ~subject:(D.Reaction "r1") "tab\there";
                ];
            };
            { Lint.fr_path = "clean.xml"; fr_diagnostics = [] };
          ] );
    ( "jobstate status and submission",
      {golden|{"id":"genetic_NOT-3e6f11d1bf8d4e04","circuit":"genetic_NOT","threshold":15,"fov_ud":0.1,"input_high":20.5,"replicates":2,"priority":5,"seq":3,"status":"queued","from_cache":false,"attempts":0,"age_s":1.25}
{"id":"genetic_NOT-3e6f11d1bf8d4e04","circuit":"genetic_NOT","threshold":15,"fov_ud":0.1,"input_high":20.5,"replicates":2,"priority":5,"seq":3,"status":"failed","error":"Failure(\"x\")","from_cache":true,"attempts":2,"age_s":0}
{"id":"genetic_NOT-3e6f11d1bf8d4e04","circuit":"genetic_NOT","threshold":15,"fov_ud":0.1,"input_high":20.5,"replicates":2,"priority":5,"seq":3}|golden},
      fun () ->
        let e = Jobstate.make ~job:last_job ~priority:5 ~seq:3 ~now:100. in
        let queued = Jobstate.status_json ~now:101.25 e in
        e.Jobstate.phase <- Jobstate.Failed "Failure(\"x\")";
        e.Jobstate.attempts <- 2;
        e.Jobstate.from_cache <- true;
        String.concat "\n"
          [
            queued;
            Jobstate.status_json ~now:99. e;
            Jobstate.submission_json e;
          ] );
    ( "evolve manifest, generation and result",
      {golden|{"version":1,"kind":"space-evolve","target":128,"inputs":3,"seed":42,"pop":4,"genes":4,"elite":1,"max_gens":1}
{"id":"gen-000000","kind":"generation","generation":0,"best":"0:1:1,0:0:1,1:1:3,1:2:1|0","best_fitness":63.5,"best_pfobe":62.5,"best_gates":0,"population":["0:2:2,0:1:1,0:0:3,1:1:2|6","1:2:0,1:0:3,0:4:0,0:5:2|5","0:1:1,0:0:1,1:1:3,1:2:1|0","1:2:2,1:0:1,1:3:3,1:5:4|2"]}
{"id":"gen-000001","kind":"generation","generation":1,"best":"0:1:1,0:0:1,1:1:3,1:2:1|0","best_fitness":63.5,"best_pfobe":62.5,"best_gates":0,"population":["0:1:1,0:0:1,1:1:3,1:2:1|0","0:1:1,0:0:1,1:1:3,1:2:1|0","1:0:2,1:3:1,0:4:4,1:2:4|2","1:0:0,1:3:0,1:0:4,0:5:2|5"]}
{"id":"result","kind":"result","target":"0x80","reached":false,"generation":1,"genome":"0:1:1,0:0:1,1:1:3,1:2:1|0","fitness":63.5,"pfobe":62.5,"gates":0,"verified":false,"provenance":"-"}|golden},
      fun () ->
        with_dir (fun dir ->
            let cfg =
              {
                (Evolve.default_config ~arity:3 ~target:0x80) with
                Evolve.v_pop = 4;
                v_genes = 4;
                v_elite = 1;
                v_max_gens = 1;
              }
            in
            ignore (Result.get_ok (Evolve.run ~dir cfg));
            let store, manifest = Result.get_ok (Store.load ~dir) in
            String.concat "\n"
              (manifest
              :: List.map
                   (fun id -> Option.get (Store.get store ~id))
                   [ "gen-000000"; "gen-000001"; "result" ])) );
    ( "atlas delay documents",
      {golden|{"id":"delay-0x1C","kind":"delay","circuit":"0x1C","threshold":15,"settle":1000,"timeout":2500,"transitions":4,"measured":3,"worst":{"delay":123.456789,"from_row":1,"to_row":2,"rising":true}}
{"id":"delay-a\"b","kind":"delay","circuit":"a\"b","threshold":15,"settle":1000,"timeout":2500,"transitions":4,"measured":0,"worst":null}|golden},
      fun () ->
        let d =
          {
            Atlas.d_transitions = 4;
            d_measured = 3;
            d_worst = Some 123.456789;
            d_from = 1;
            d_to = 2;
            d_rising = true;
          }
        in
        String.concat "\n"
          [
            Atlas.delay_doc ~name:"0x1C" ~protocol:Protocol.default d;
            Atlas.delay_doc ~name:"a\"b" ~protocol:short
              { d with d_measured = 0; d_worst = None };
          ] );
  ]

let () =
  Alcotest.run "golden"
    [
      ( "bytes",
        List.map
          (fun (name, expected, render) ->
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check string) name expected (render ())))
          cases );
    ]
