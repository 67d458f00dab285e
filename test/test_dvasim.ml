(* Tests for glc_dvasim: the experimental protocol, the virtual
   laboratory, threshold estimation and propagation-delay analysis. *)

module Protocol = Glc_dvasim.Protocol
module Experiment = Glc_dvasim.Experiment
module Threshold = Glc_dvasim.Threshold
module Prop_delay = Glc_dvasim.Prop_delay
module Events = Glc_ssa.Events
module Trace = Glc_ssa.Trace
module Circuit = Glc_gates.Circuit
module Circuits = Glc_gates.Circuits

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

(* ---- protocol ---- *)

let test_protocol_paper_defaults () =
  let p = Protocol.default in
  checkf 0. "total" 10_000. p.Protocol.total_time;
  checkf 0. "hold" 1_000. p.Protocol.hold_time;
  checkf 0. "threshold" 15. p.Protocol.threshold;
  checkf 0. "input high = threshold" 15. p.Protocol.input_high;
  checkf 0. "input low" 0. p.Protocol.input_low

let test_protocol_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Protocol.make ~total_time:0. ());
  expect_invalid (fun () -> Protocol.make ~hold_time:(-1.) ());
  expect_invalid (fun () -> Protocol.make ~threshold:0. ());
  expect_invalid (fun () ->
      Protocol.make ~input_high:1. ~input_low:2. ());
  expect_invalid (fun () -> Protocol.with_threshold Protocol.default 0.);
  (* non-finite values are rejected like non-positive ones: an infinite
     total never ends a simulation, a NaN one prints "nan t.u." *)
  List.iter
    (fun v ->
      expect_invalid (fun () -> Protocol.make ~total_time:v ());
      expect_invalid (fun () -> Protocol.make ~hold_time:v ());
      expect_invalid (fun () -> Protocol.make ~threshold:v ());
      expect_invalid (fun () -> Protocol.make ~dt:v ());
      expect_invalid (fun () -> Protocol.with_threshold Protocol.default v))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ---- CLI protocol options ---- *)

let glcv_exe = Filename.concat (Sys.getcwd ()) "../bin/glcv.exe"

(* Runs the CLI with stdout discarded and a 30 s limit; returns the exit
   code (-1 when it had to be killed) and the captured stderr. *)
let run_glcv args =
  let err_path = Filename.temp_file "glcv" ".stderr" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process glcv_exe
      (Array.of_list (glcv_exe :: args))
      devnull devnull err
  in
  Unix.close devnull;
  Unix.close err;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        -1
    | 0, _ ->
        Unix.sleepf 0.01;
        wait ()
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  in
  let code = wait () in
  let ic = open_in_bin err_path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err_path;
  (code, text)

let test_cli_rejects_bad_protocol_values () =
  (* every protocol time or threshold that is not a positive finite
     number is a cmdliner usage error (124) with a one-line message —
     not an uncaught Invalid_argument (125), a hang, or a run over
     "nan t.u." *)
  let protocol_flags = [ "--total"; "--hold"; "--threshold"; "-t" ] in
  List.iter
    (fun (cmd, flags) ->
      List.iter
        (fun flag ->
          List.iter
            (fun v ->
              let arg =
                if String.length flag = 2 then flag ^ v else flag ^ "=" ^ v
              in
              let what = Printf.sprintf "%s %s" cmd arg in
              let code, err = run_glcv [ cmd; "genetic_NOT"; arg ] in
              checki (what ^ ": exit code") 124 code;
              match String.split_on_char '\n' err with
              | first :: second :: _ ->
                  checkb (what ^ ": one-line message") true
                    (String.starts_with ~prefix:"glcv: option" first
                    && String.starts_with ~prefix:"Usage:" second)
              | _ -> Alcotest.failf "%s: unexpected stderr %S" what err)
            [ "0"; "-1"; "nan"; "inf" ])
        flags)
    [
      ("simulate", protocol_flags);
      ("analyze", protocol_flags);
      ("ensemble", protocol_flags);
      ("verify", protocol_flags);
      ("delay", protocol_flags);
      ("sweep", [ "--total"; "--hold"; "--thresholds" ]);
      ("robustness", protocol_flags);
      ("probe", protocol_flags);
      ("certify", protocol_flags);
    ]

let test_protocol_with_threshold () =
  let p = Protocol.with_threshold Protocol.default 40. in
  checkf 0. "threshold" 40. p.Protocol.threshold;
  checkf 0. "input follows" 40. p.Protocol.input_high

let test_protocol_slots_rows () =
  let p = Protocol.default in
  checki "slots" 10 (Protocol.slots p);
  checki "row at 0" 0 (Protocol.row_at p ~arity:3 500.);
  checki "row at slot 3" 3 (Protocol.row_at p ~arity:3 3_500.);
  (* wraps around after 2^arity slots *)
  checki "wraps" 0 (Protocol.row_at p ~arity:3 8_500.);
  checki "arity 2 wrap" 1 (Protocol.row_at p ~arity:2 5_500.)

(* ---- experiment ---- *)

let test_stimulus_schedule () =
  let p =
    Protocol.make ~total_time:4_000. ~hold_time:1_000. ~threshold:15. ()
  in
  let sched = Experiment.stimulus p ~inputs:[| "A"; "B" |] in
  let events = Events.to_list sched in
  (* 4 slots x 2 inputs *)
  checki "event count" 8 (List.length events);
  (* slot 2 = combination 10: A (MSB) high, B low *)
  let at_2000 =
    List.filter (fun e -> e.Events.e_time = 2_000.) events
  in
  List.iter
    (fun e ->
      match e.Events.e_species with
      | "A" -> checkf 0. "A high" 15. e.Events.e_value
      | "B" -> checkf 0. "B low" 0. e.Events.e_value
      | other -> Alcotest.failf "unexpected species %s" other)
    at_2000;
  checki "two events at slot 2" 2 (List.length at_2000)

let fast_protocol =
  Protocol.make ~total_time:2_000. ~hold_time:500. ~seed:3 ()

let test_experiment_run () =
  let c = Circuits.genetic_not () in
  let e = Experiment.run ~protocol:fast_protocol c in
  let tr = e.Experiment.trace in
  checkb "all species logged" true
    (Trace.index tr "LacI" <> None && Trace.index tr "GFP" <> None);
  checki "samples" 2001 (Trace.length tr);
  checki "applied row start" 0 (Experiment.applied_row e 100.);
  checki "applied row slot 1" 1 (Experiment.applied_row e 700.);
  (* the lab holds the input where it was told to *)
  checkf 0. "input clamped low" 0. (Trace.value tr "LacI" 100);
  checkf 0. "input clamped high" 15. (Trace.value tr "LacI" 700)

let test_experiment_log_csv () =
  let c = Circuits.genetic_not () in
  let e = Experiment.run ~protocol:fast_protocol c in
  let path = Filename.temp_file "glc_test" ".csv" in
  Experiment.log_csv path e;
  (match Trace.read_csv path with
  | Ok tr -> checki "log round trip" 2001 (Trace.length tr)
  | Error err -> Alcotest.fail err);
  Sys.remove path

let test_experiment_determinism () =
  let c = Circuits.genetic_and () in
  let e1 = Experiment.run ~protocol:fast_protocol c in
  let e2 = Experiment.run ~protocol:fast_protocol c in
  checkb "same protocol, same log" true
    (Trace.to_csv e1.Experiment.trace = Trace.to_csv e2.Experiment.trace)

(* ---- threshold analysis ---- *)

let test_two_means () =
  let lo, hi =
    Threshold.two_means [| 1.; 2.; 1.5; 100.; 98.; 101.; 2.5; 99. |]
  in
  checkb "low cluster" true (lo > 1. && lo < 3.);
  checkb "high cluster" true (hi > 97. && hi < 102.)

let test_two_means_degenerate () =
  let lo, hi = Threshold.two_means [| 5.; 5.; 5. |] in
  checkf 0. "same point" lo hi;
  Alcotest.check_raises "empty" (Invalid_argument "Threshold.two_means: empty")
    (fun () -> ignore (Threshold.two_means [||]))

let test_threshold_estimate () =
  let c = Circuits.genetic_not () in
  let est = Threshold.estimate ~protocol:fast_protocol c in
  checkb "low below high" true
    (est.Threshold.low_level < est.Threshold.high_level);
  checkb "threshold between rails" true
    (est.Threshold.threshold > est.Threshold.low_level
    && est.Threshold.threshold < est.Threshold.high_level);
  (* the NOT gate swings roughly 1 <-> 100 molecules *)
  checkb "meaningful separation" true (est.Threshold.separation > 5.)

(* Regression: a sampling step coarser than the hold slot used to crash
   with Division_by_zero deep in the settle-window arithmetic; it must
   be rejected up front instead. *)
let test_threshold_estimate_dt_coarser_than_hold () =
  let protocol =
    Protocol.make ~total_time:2_000. ~hold_time:100. ~dt:250. ~seed:3 ()
  in
  let c = Circuits.genetic_not () in
  Alcotest.check_raises "rejected up front"
    (Invalid_argument
       "Threshold.estimate: hold_time < dt leaves no samples per hold slot")
    (fun () -> ignore (Threshold.estimate ~protocol c))

(* A non-integer hold_time/dt ratio is legitimate: each slot simply
   contributes floor(hold/dt) samples. *)
let test_threshold_estimate_ragged_ratio () =
  let protocol =
    Protocol.make ~total_time:2_000. ~hold_time:250. ~dt:100. ~seed:3 ()
  in
  let c = Circuits.genetic_not () in
  let est = Threshold.estimate ~protocol c in
  checkb "low below high" true
    (est.Threshold.low_level < est.Threshold.high_level);
  checkb "threshold between rails" true
    (est.Threshold.threshold > est.Threshold.low_level
    && est.Threshold.threshold < est.Threshold.high_level)

(* ---- propagation delay ---- *)

let test_prop_delay_measure () =
  let c = Circuits.genetic_not () in
  (* rows: 0 -> output high, 1 -> output low *)
  match
    Prop_delay.measure ~protocol:fast_protocol ~repeats:3 ~from_row:0
      ~to_row:1 c
  with
  | None -> Alcotest.fail "expected a measurement"
  | Some m ->
      checkb "falling" true (not m.Prop_delay.rising);
      checki "three repetitions" 3 (List.length m.Prop_delay.delays);
      checkb "positive delay" true (m.Prop_delay.mean_delay > 0.);
      checkb "max >= mean" true
        (m.Prop_delay.max_delay >= m.Prop_delay.mean_delay -. 1e-9);
      (* our gates settle well within the paper's 1000 t.u. hold *)
      checkb "within hold time" true (m.Prop_delay.max_delay < 1_000.)

let test_prop_delay_no_transition () =
  let c = Circuits.genetic_and () in
  (* rows 0 (00) and 1 (01) both have low output: nothing to measure *)
  checkb "no transition" true
    (Prop_delay.measure ~protocol:fast_protocol ~from_row:0 ~to_row:1 c
    = None)

let test_prop_delay_worst_case () =
  let c = Circuits.genetic_not () in
  match Prop_delay.worst_case ~protocol:fast_protocol ~repeats:2 c with
  | None -> Alcotest.fail "expected a worst case"
  | Some m -> checkb "positive" true (m.Prop_delay.mean_delay > 0.)

(* ---- gray-code ordering ---- *)

let test_gray_order () =
  let p = Protocol.make ~order:Protocol.Gray () in
  let rows =
    List.init 8 (fun slot -> Protocol.row_of_slot p ~arity:3 slot)
  in
  Alcotest.(check (list int))
    "standard gray sequence" [ 0; 1; 3; 2; 6; 7; 5; 4 ] rows;
  (* exactly one input changes between consecutive slots *)
  List.iteri
    (fun i row ->
      if i > 0 then begin
        let prev = List.nth rows (i - 1) in
        let diff = row lxor prev in
        checkb "single bit flip" true (diff land (diff - 1) = 0 && diff <> 0)
      end)
    rows;
  (* counting order unchanged by default *)
  checki "counting" 5 (Protocol.row_of_slot Protocol.default ~arity:3 5)

let test_gray_experiment_verifies () =
  let protocol =
    Protocol.make ~total_time:4_000. ~hold_time:500. ~order:Protocol.Gray ()
  in
  let e = Experiment.run ~protocol (Glc_gates.Cello.circuit_0x0B ()) in
  let _, v = Glc_core.Verify.experiment e in
  checkb "verified under gray order" true v.Glc_core.Verify.verified

(* ---- timing matrix ---- *)

let test_delay_matrix () =
  let c = Circuits.genetic_not () in
  let ms = Prop_delay.matrix ~protocol:fast_protocol ~repeats:2 c in
  (* a NOT gate has exactly two transitions: 0->1 and 1->0 *)
  checki "two transitions" 2 (List.length ms);
  List.iter
    (fun m -> checkb "positive" true (m.Prop_delay.mean_delay > 0.))
    ms;
  match Prop_delay.recommended_hold ~protocol:fast_protocol ~repeats:2 c with
  | None -> Alcotest.fail "expected a recommendation"
  | Some hold ->
      checkb "multiple of 50" true (Float.rem hold 50. = 0.);
      let worst =
        List.fold_left
          (fun acc m -> Float.max acc m.Prop_delay.max_delay)
          0. ms
      in
      checkb "covers the worst delay with margin" true (hold >= 5. *. worst)

(* ---- interactive lab ---- *)

let test_lab_session () =
  let model = Circuit.model (Circuits.genetic_not ()) in
  let lab = Glc_dvasim.Lab.create ~seed:11 model in
  checkf 0. "starts at zero" 0. (Glc_dvasim.Lab.time lab);
  Glc_dvasim.Lab.run lab 500.;
  (* no repressor: GFP settles high *)
  checkb "settles high" true (Glc_dvasim.Lab.amount lab "GFP" > 50.);
  Glc_dvasim.Lab.set lab "LacI" 15.;
  Glc_dvasim.Lab.run lab 500.;
  checkb "represses" true (Glc_dvasim.Lab.amount lab "GFP" < 15.);
  checkf 0. "time advanced" 1_000. (Glc_dvasim.Lab.time lab);
  let log = Glc_dvasim.Lab.history lab in
  checki "continuous log" 1001 (Trace.length log);
  checkf 0. "log starts at zero" 0. (Trace.time log 0);
  (* the log shows the injection *)
  checkf 0. "LacI before" 0. (Trace.value log "LacI" 499);
  checkf 0. "LacI after" 15. (Trace.value log "LacI" 501);
  Glc_dvasim.Lab.reset lab;
  checkf 0. "reset time" 0. (Glc_dvasim.Lab.time lab);
  checki "reset log" 1 (Trace.length (Glc_dvasim.Lab.history lab))

let test_lab_validation () =
  let model = Circuit.model (Circuits.genetic_not ()) in
  let lab = Glc_dvasim.Lab.create model in
  (match Glc_dvasim.Lab.run lab (-5.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative duration");
  (match Glc_dvasim.Lab.run lab 0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fractional duration");
  match Glc_dvasim.Lab.amount lab "ghost" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown species"

let test_lab_determinism () =
  let model = Circuit.model (Circuits.genetic_not ()) in
  let a = Glc_dvasim.Lab.create ~seed:3 model in
  let b = Glc_dvasim.Lab.create ~seed:3 model in
  Glc_dvasim.Lab.run a 200.;
  Glc_dvasim.Lab.run b 100.;
  Glc_dvasim.Lab.run b 100.;
  (* same seed but different segmentation: histories may differ, yet both
     must be reproducible runs of the same session pattern *)
  Glc_dvasim.Lab.reset a;
  Glc_dvasim.Lab.run a 200.;
  let a2 = Glc_dvasim.Lab.create ~seed:3 model in
  Glc_dvasim.Lab.run a2 200.;
  checkb "reset restarts the stream" true
    (Trace.to_csv (Glc_dvasim.Lab.history a)
    = Trace.to_csv (Glc_dvasim.Lab.history a2))

let () =
  Alcotest.run "glc_dvasim"
    [
      ( "protocol",
        [
          Alcotest.test_case "paper defaults" `Quick
            test_protocol_paper_defaults;
          Alcotest.test_case "validation" `Quick test_protocol_validation;
          Alcotest.test_case "with_threshold" `Quick
            test_protocol_with_threshold;
          Alcotest.test_case "slots and rows" `Quick test_protocol_slots_rows;
          Alcotest.test_case "CLI rejects bad protocol values" `Quick
            test_cli_rejects_bad_protocol_values;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "stimulus schedule" `Quick
            test_stimulus_schedule;
          Alcotest.test_case "run" `Quick test_experiment_run;
          Alcotest.test_case "csv log" `Quick test_experiment_log_csv;
          Alcotest.test_case "determinism" `Quick
            test_experiment_determinism;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "two means" `Quick test_two_means;
          Alcotest.test_case "degenerate clusters" `Quick
            test_two_means_degenerate;
          Alcotest.test_case "estimate" `Slow test_threshold_estimate;
          Alcotest.test_case "dt coarser than hold rejected" `Quick
            test_threshold_estimate_dt_coarser_than_hold;
          Alcotest.test_case "ragged hold/dt ratio" `Slow
            test_threshold_estimate_ragged_ratio;
        ] );
      ( "prop_delay",
        [
          Alcotest.test_case "measure" `Slow test_prop_delay_measure;
          Alcotest.test_case "no transition" `Quick
            test_prop_delay_no_transition;
          Alcotest.test_case "worst case" `Slow test_prop_delay_worst_case;
          Alcotest.test_case "matrix and recommendation" `Slow
            test_delay_matrix;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "gray sequence" `Quick test_gray_order;
          Alcotest.test_case "gray experiment verifies" `Slow
            test_gray_experiment_verifies;
        ] );
      ( "lab",
        [
          Alcotest.test_case "session" `Quick test_lab_session;
          Alcotest.test_case "validation" `Quick test_lab_validation;
          Alcotest.test_case "determinism" `Quick test_lab_determinism;
        ] );
    ]
