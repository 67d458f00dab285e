(* glcv — genetic logic circuit verifier.

   Command-line front end for the library: list the benchmark circuits,
   synthesise circuits from truth-table codes, run virtual-laboratory
   experiments, analyse and verify their logic, estimate thresholds and
   propagation delays, export SBML/SBOL models, and run resumable
   batch-verification campaigns.

   Exit codes: 0 success; 1 a verification verdict was negative (verify,
   ensemble, campaign report) or lint found warnings; 2 lint found
   errors (the `lint` command, and the pre-flight guard on
   verify/ensemble/campaign run unless --no-lint); 3 a campaign is
   incomplete; 123 any error reported on stderr (a runtime failure such
   as an unknown circuit, or a command-line mistake — cmdliner's eval'
   maps both to the same code); 125 an unexpected internal error. Codes
   1, 2 and 3 are deliberate and documented per command so scripts and
   CI can branch on the result. *)

open Cmdliner

(* Verdict exits, distinct from cmdliner's error codes (123/124/125):
   scripts branch on "ran fine, circuit is wrong" without parsing
   output. *)
let exit_not_verified = 1
let exit_lint_error = 2
let exit_incomplete = 3

(* 128 + SIGINT: the conventional "terminated by ^C" code, returned by
   ensemble/campaign runs that were interrupted but flushed cleanly. *)
let exit_interrupted = 130

let lint_guard_exit =
  Cmd.Exit.info exit_lint_error
    ~doc:"the pre-flight lint found errors (see $(b,glcv lint)); no \
          simulation was run. Bypass with $(b,--no-lint)."

let interrupted_exit =
  Cmd.Exit.info exit_interrupted
    ~doc:"the run was interrupted by $(b,SIGINT)/$(b,SIGTERM) and shut \
          down gracefully: completed work was persisted, the journal \
          and metrics were flushed, and a final status line was \
          printed. Resume-capable commands pick up where they left off."

let verdict_exits =
  Cmd.Exit.info exit_not_verified
    ~doc:"the circuit (or at least one campaign job) did $(b,not) verify \
          against its intended logic — the run itself succeeded."
  :: lint_guard_exit :: interrupted_exit :: Cmd.Exit.defaults

let campaign_exits =
  Cmd.Exit.info exit_incomplete
    ~doc:"the campaign is incomplete: jobs are still pending (a \
          $(b,--limit) cut-off) or failed to run."
  :: verdict_exits

let lint_exits =
  Cmd.Exit.info 0 ~doc:"no diagnostics beyond informational notes."
  :: Cmd.Exit.info 1 ~doc:"lint found warnings but no errors."
  :: Cmd.Exit.info 2 ~doc:"lint found errors."
  :: Cmd.Exit.defaults

module Circuit = Glc_gates.Circuit
module Benchmarks = Glc_gates.Benchmarks
module Cello = Glc_gates.Cello
module Protocol = Glc_dvasim.Protocol
module Experiment = Glc_dvasim.Experiment
module Analyzer = Glc_core.Analyzer
module Verify = Glc_core.Verify
module Report = Glc_core.Report
module Lint = Glc_lint.Lint
module Diagnostic = Glc_lint.Diagnostic
module Certificate = Glc_symbolic.Certificate

let find_circuit name =
  match Benchmarks.find name with
  | Some c -> Ok c
  | None -> (
      (* Accept any truth-table code, not just the benchmark set: 0xNN
         (or bare decimal) is a 3-input function, 0xNNNN a 4-input one
         — the same rule as Campaign.Runner.resolve. *)
      let code =
        match Cello.code_of_name name with
        | Some _ as c -> c
        | None -> (
            match int_of_string_opt name with
            | Some c when c >= 0 && c <= 0xFF -> Some (3, c)
            | _ -> None)
      in
      match code with
      | Some (arity, code) -> Ok (Cello.of_code ~arity code)
      | None ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown circuit %S (try `glcv list`, or a code like 0x1C)"
                 name)))

(* ---- common options ---- *)

let circuit_arg =
  let parse s = find_circuit s in
  let print ppf c = Format.pp_print_string ppf c.Circuit.name in
  Arg.required
    (Arg.pos 0
       (Arg.some (Arg.conv (parse, print)))
       None
       (Arg.info [] ~docv:"CIRCUIT"
          ~doc:"Benchmark circuit name (see $(b,glcv list)) or a \
                truth-table code such as 0x1C."))

(* Protocol times and thresholds: anything but a positive finite number
   (0, a negative, nan, inf) is a usage error, reported before any
   protocol is built. The message stays short enough for cmdliner to
   print it on one line. *)
let parse_positive s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x && x > 0. -> Ok x
  | Some _ | None ->
      Error (`Msg (Printf.sprintf "'%s' is not a positive finite number" s))

let positive_float = Arg.conv (parse_positive, Arg.conv_printer Arg.float)

(* A comma-separated list of them; [Arg.list] would wrap the element's
   message in a second, line-breaking prefix. *)
let positive_floats =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
        Result.bind (parse_positive s) (fun x -> parse (x :: acc) rest)
  in
  Arg.conv
    ( (fun s -> parse [] (String.split_on_char ',' s)),
      Arg.conv_printer (Arg.list Arg.float) )

let threshold_opt =
  Arg.value
    (Arg.opt positive_float Protocol.default.Protocol.threshold
       (Arg.info [ "threshold"; "t" ] ~docv:"MOLECULES"
          ~doc:"Logic threshold; a logic-1 input is clamped to this \
                amount (the paper's setup)."))

let total_opt =
  Arg.value
    (Arg.opt positive_float Protocol.default.Protocol.total_time
       (Arg.info [ "total" ] ~docv:"TIME" ~doc:"Total simulation time."))

let hold_opt =
  Arg.value
    (Arg.opt positive_float Protocol.default.Protocol.hold_time
       (Arg.info [ "hold" ] ~docv:"TIME"
          ~doc:"Hold time per input combination (propagation delay)."))

let seed_opt =
  Arg.value
    (Arg.opt Arg.int Protocol.default.Protocol.seed
       (Arg.info [ "seed" ] ~docv:"INT" ~doc:"Random seed."))

let fov_opt =
  Arg.value
    (Arg.opt Arg.float Analyzer.default_params.Analyzer.fov_ud
       (Arg.info [ "fov" ] ~docv:"FRACTION"
          ~doc:"FOV_UD: accepted fraction of output variation (eq. 1)."))

let algorithm_opt =
  let conv =
    Arg.enum
      [
        ("direct", Glc_ssa.Sim.Direct);
        ("next-reaction", Glc_ssa.Sim.Next_reaction);
        ("tau-leap", Glc_ssa.Sim.Tau_leaping { epsilon = 0.03 });
      ]
  in
  Arg.value
    (Arg.opt conv Glc_ssa.Sim.Direct
       (Arg.info [ "algorithm"; "a" ] ~docv:"ALGO"
          ~doc:"SSA variant: $(b,direct), $(b,next-reaction) or \
                $(b,tau-leap)."))

let gray_opt =
  Arg.value
    (Arg.flag
       (Arg.info [ "gray" ]
          ~doc:"Sequence the input combinations in Gray-code order (one \
                input changes per step) instead of counting order."))

let protocol_term =
  let make threshold total hold seed algorithm gray =
    Protocol.make ~total_time:total ~hold_time:hold ~threshold ~seed
      ~algorithm
      ~order:(if gray then Protocol.Gray else Protocol.Counting)
      ()
  in
  Term.(
    const make $ threshold_opt $ total_opt $ hold_opt $ seed_opt
    $ algorithm_opt $ gray_opt)

(* ---- observability (--metrics) ---- *)

let metrics_opt =
  Arg.value
    (Arg.opt (Arg.some Arg.string) None
       (Arg.info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write an observability report to FILE as JSON after the \
                run: $(b,deterministic) (counters and gauges — \
                byte-identical across runs with the same seed and \
                worker count) and $(b,timings) (latency histograms and \
                spans, wall-clock)."))

(* Runs [f] against a live registry when --metrics FILE was given (the
   no-op sink otherwise) and writes the export afterwards. The notice
   goes to stderr: stdout may carry a machine-read JSON report. *)
let with_metrics path f =
  match path with
  | None -> f Glc_obs.Metrics.noop
  | Some file ->
      let metrics = Glc_obs.Metrics.create () in
      let r = f metrics in
      let oc = open_out file in
      output_string oc (Glc_obs.Metrics.to_json metrics);
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "metrics written to %s\n%!" file;
      r

(* ---- graceful interrupt (SIGINT/SIGTERM) ---- *)

(* Long-running commands poll this flag between units of work (one
   replicate, one campaign job) instead of dying mid-write: the handler
   only flips an atomic, and the run winds down at the next boundary —
   results persisted, journal and metrics flushed — then exits 130. *)
let interrupted = Atomic.make false

let interrupt_requested () = Atomic.get interrupted

let install_interrupt_handlers () =
  let flag _ = Atomic.set interrupted true in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle flag)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* ---- lint guard ---- *)

let no_lint_opt =
  Arg.value
    (Arg.flag
       (Arg.info [ "no-lint" ]
          ~doc:"Skip the pre-flight lint pass (see $(b,glcv lint)). \
                Without it, lint errors abort the run with exit code 2 \
                before any simulation is spent."))

(* Pre-flight static analysis before a simulation-heavy command: lint
   every circuit involved, print diagnostics on stderr (stdout may
   carry the machine-read report), abort with [Error exit 2] on lint
   errors. Warnings and infos are printed but do not block. *)
let lint_guard ~no_lint ~protocol circuits =
  if no_lint then Ok ()
  else begin
    let ds = List.concat_map (Lint.circuit ~protocol) circuits in
    List.iter
      (fun d -> Format.eprintf "lint: %a@." Diagnostic.pp d)
      ds;
    if Diagnostic.exit_code ds >= 2 then begin
      Format.eprintf
        "lint found %d error(s); fix the model or bypass with --no-lint@."
        (Diagnostic.errors ds);
      Error exit_lint_error
    end
    else Ok ()
  end

(* ---- lint ---- *)

let lint_cmd =
  let run threshold json metrics_file files =
    with_metrics metrics_file (fun metrics ->
        let report = Lint.files ~threshold ~metrics files in
        if json then print_endline (Lint.report_json report)
        else begin
          List.iter
            (fun fr ->
              List.iter
                (fun d ->
                  Format.printf "%s: %a@." fr.Lint.fr_path Diagnostic.pp d)
                fr.Lint.fr_diagnostics)
            report;
          let all =
            List.concat_map (fun fr -> fr.Lint.fr_diagnostics) report
          in
          Format.printf "%d model(s) linted: %d error(s), %d warning(s)@."
            (List.length report) (Diagnostic.errors all)
            (Diagnostic.warnings all)
        end;
        Ok (Lint.report_exit_code report))
  in
  let files_arg =
    Arg.non_empty
      (Arg.pos_all Arg.string []
         (Arg.info [] ~docv:"MODEL"
            ~doc:"Model files to lint. $(b,NAME.sbml.xml) and \
                  $(b,NAME.sbol.xml) siblings are paired into one lint \
                  group so the cross-document checks (GLC010) run and \
                  the SBOL reporter becomes the output species for \
                  GLC002/GLC005; other files are sniffed (SBML first, \
                  then SBOL)."))
  in
  let threshold_opt =
    Arg.value
      (Arg.opt Arg.float Protocol.default.Protocol.threshold
         (Arg.info [ "threshold" ] ~docv:"T"
            ~doc:"Logic threshold (molecules) used by the \
                  conservation-bound check GLC005."))
  in
  let json_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "json" ]
            ~doc:"Emit the machine-readable JSON report on stdout \
                  instead of the text diagnostics."))
  in
  Cmd.v
    (Cmd.info "lint" ~exits:lint_exits
       ~doc:"Statically analyse genetic circuit model files without \
             simulating: unproducible species, unreachable and inert \
             reactions, conservation laws that pin the output below \
             the logic threshold, kinetic-law and cross-document \
             sanity. Each finding carries a stable $(b,GLC)-prefixed \
             code; see the library documentation for the catalogue.")
    Term.(
      term_result
        (const run $ threshold_opt $ json_opt $ metrics_opt $ files_arg))

(* ---- list ---- *)

let list_cmd =
  let run () =
    Format.printf "%-14s %7s %6s %11s %9s@." "circuit" "inputs" "gates"
      "components" "expected";
    List.iter
      (fun (name, inputs, gates, comps) ->
        let c = Option.get (Benchmarks.find name) in
        let code =
          Format.asprintf "%a" Glc_logic.Truth_table.pp_code
            c.Circuit.expected
        in
        Format.printf "%-14s %7d %6d %11d %9s@." name inputs gates comps
          code)
      (Benchmarks.summary ());
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the 15 benchmark circuits of the paper.")
    Term.(const run $ const ())

(* ---- synth ---- *)

(* Builds a circuit from a Boolean expression over the sensor proteins
   (LacI, TetR, AraC, IN4, ...); the number of inputs is the number of
   distinct variables. *)
let circuit_of_expression s =
  match Glc_logic.Expr.of_string s with
  | Error e -> Error (`Msg e)
  | Ok expr -> (
      let vars = Glc_logic.Expr.vars expr in
      let n = List.length vars in
      if n = 0 then Error (`Msg "the expression uses no variables")
      else begin
        let sensors = Glc_gates.Assembly.sensors n in
        let missing =
          List.filter (fun v -> not (Array.mem v sensors)) vars
        in
        if missing <> [] then
          Error
            (`Msg
              (Printf.sprintf
                 "unknown input protein(s) %s: a %d-variable expression \
                  may use %s"
                 (String.concat ", " missing)
                 n
                 (String.concat ", " (Array.to_list sensors))))
        else begin
          (* table bit i corresponds to sensor n-1-i (see Circuit docs) *)
          let bit_names = Array.init n (fun i -> sensors.(n - 1 - i)) in
          let tt = Glc_logic.Expr.to_truth_table ~inputs:bit_names expr in
          match
            Glc_gates.Assembly.synthesize
              ~library:(Glc_gates.Repressor.extended 32)
              ~name:(Printf.sprintf "expr_0x%02X" (Glc_logic.Truth_table.to_code tt))
              tt
          with
          | c -> Ok c
          | exception Invalid_argument m -> Error (`Msg m)
        end
      end)

let synth_cmd =
  let ( let* ) = Result.bind in
  let run expr verilog dot circuit =
    let* c =
      match (expr, circuit) with
      | Some s, None -> circuit_of_expression s
      | None, Some (Ok c) -> Ok c
      | None, Some (Error e) -> Error e
      | None, None -> Error (`Msg "give a circuit, a code, or --expr")
      | Some _, Some _ -> Error (`Msg "give either a circuit or --expr")
    in
    Format.printf "%a@.@.%a@." Glc_sbol.Document.pp c.Circuit.document
      (Format.pp_print_list (fun ppf (prom, k) ->
           Format.fprintf ppf "%s: ymax=%g ymin=%g K=%g n=%g" prom
             k.Glc_sbol.To_model.ymax k.Glc_sbol.To_model.ymin
             k.Glc_sbol.To_model.k k.Glc_sbol.To_model.n))
      c.Circuit.promoter_kinetics;
    (match dot with
    | Some path ->
        let oc = open_out path in
        output_string oc (Glc_sbol.Document.to_dot c.Circuit.document);
        close_out oc;
        Format.printf "@.wrote %s (render with dot -Tsvg)@." path
    | None -> ());
    (match verilog with
    | Some path ->
        let n = Circuit.arity c in
        let sensors = Glc_gates.Assembly.sensors n in
        let bit_names = Array.init n (fun i -> sensors.(n - 1 - i)) in
        let nl =
          Glc_logic.Netlist.of_truth_table ~inputs:bit_names
            c.Circuit.expected
        in
        let oc = open_out path in
        output_string oc
          (Glc_logic.Netlist.to_verilog ~name:"genetic_circuit" nl);
        close_out oc;
        Format.printf "wrote %s@." path
    | None -> ());
    Ok 0
  in
  let expr_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "expr" ] ~docv:"EXPRESSION"
            ~doc:"Synthesise from a Boolean expression over the sensor \
                  proteins, e.g. \"LacI.TetR' + AraC\"."))
  in
  let verilog_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "verilog" ] ~docv:"FILE"
            ~doc:"Also write the NOR netlist as structural Verilog."))
  in
  let dot_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "dot" ] ~docv:"FILE"
            ~doc:"Also write the regulatory network as a Graphviz file."))
  in
  let circuit_opt =
    let parse s = Ok (find_circuit s) in
    let print ppf = function
      | Ok c -> Format.pp_print_string ppf c.Circuit.name
      | Error _ -> Format.pp_print_string ppf "?"
    in
    Arg.value
      (Arg.pos 0
         (Arg.some (Arg.conv (parse, print)))
         None
         (Arg.info [] ~docv:"CIRCUIT" ~doc:"Circuit name or code."))
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Synthesise a circuit (from the benchmark set, a truth-table \
             code, or a Boolean expression) and print its structural \
             document.")
    Term.(
      term_result
        (const run $ expr_opt $ verilog_opt $ dot_opt $ circuit_opt))

(* ---- simulate ---- *)

let simulate_cmd =
  let run protocol csv metrics_file circuit =
    let e =
      with_metrics metrics_file (fun metrics ->
          Experiment.run ~protocol ~metrics circuit)
    in
    (match csv with
    | Some path ->
        Experiment.log_csv path e;
        Format.printf "wrote %s@." path
    | None ->
        let tr = e.Experiment.trace in
        Format.printf "simulated %s for %g t.u.; final amounts:@."
          circuit.Circuit.name protocol.Protocol.total_time;
        Array.iter
          (fun id ->
            let n = Glc_ssa.Trace.length tr in
            Format.printf "  %-10s %8.1f@." id
              (Glc_ssa.Trace.value tr id (n - 1)))
          (Glc_ssa.Trace.names tr));
    Ok 0
  in
  let csv_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "csv" ] ~docv:"FILE"
            ~doc:"Write the full simulation log to a CSV file."))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a circuit through the virtual laboratory.")
    Term.(
      term_result
        (const run $ protocol_term $ csv_opt $ metrics_opt $ circuit_arg))

(* ---- analyze ---- *)

let analyze_cmd =
  let run protocol fov circuit =
    let e = Experiment.run ~protocol circuit in
    let params =
      { Analyzer.threshold = protocol.Protocol.threshold; fov_ud = fov }
    in
    let r = Analyzer.of_experiment ~params e in
    Format.printf "%a@."
      (Report.pp_result ~output_name:circuit.Circuit.output)
      r;
    Ok 0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Extract the Boolean logic of a circuit from simulation \
             (Algorithm 1 of the paper).")
    Term.(term_result (const run $ protocol_term $ fov_opt $ circuit_arg))

(* ---- verify ---- *)

let combination_string ~arity row =
  String.init arity (fun j ->
      if (row lsr (arity - 1 - j)) land 1 = 1 then '1' else '0')

(* The pure-SSA path, kept verbatim behind --no-certify: simulate the
   whole stimulus schedule and extract every row stochastically. *)
let verify_one protocol fov c =
  let e = Experiment.run ~protocol c in
  let params =
    { Analyzer.threshold = protocol.Protocol.threshold; fov_ud = fov }
  in
  let r = Analyzer.of_experiment ~params e in
  let v = Verify.against ~expected:c.Circuit.expected r in
  (r, v)

let margin_opt =
  Arg.value
    (Arg.opt Arg.float Certificate.default_margin
       (Arg.info [ "margin" ] ~docv:"SIGMAS"
          ~doc:"Noise margin of the symbolic analyser, in Poisson \
                standard deviations: a steady-state bound must clear \
                the threshold by this many sqrt(bound) molecules before \
                a row counts as proved."))

let verify_cmd =
  let run protocol fov margin no_certify all no_lint metrics_file circuit =
    let hybrid metrics c =
      let params =
        { Analyzer.threshold = protocol.Protocol.threshold; fov_ud = fov }
      in
      Verify.certified_first ~params ~margin ~metrics ~protocol c
    in
    if all then begin
      match lint_guard ~no_lint ~protocol (Benchmarks.all ()) with
      | Error code -> Ok code
      | Ok () ->
      let failures = ref 0 in
      if no_certify then
        List.iter
          (fun c ->
            let r, v = verify_one protocol fov c in
            if not v.Verify.verified then incr failures;
            Format.printf "%-14s %-8s fitness=%6.2f%%  %s = %a@."
              c.Circuit.name
              (if v.Verify.verified then "VERIFIED" else "WRONG")
              r.Analyzer.fitness c.Circuit.output Glc_logic.Expr.pp
              r.Analyzer.expr)
          (Benchmarks.all ())
      else begin
        let certified = ref 0 and total = ref 0 in
        with_metrics metrics_file (fun metrics ->
            List.iter
              (fun c ->
                let h = hybrid metrics c in
                let v = h.Verify.h_report in
                let cert = h.Verify.h_certificate in
                if not v.Verify.verified then incr failures;
                certified := !certified + Certificate.decided cert;
                total := !total + Certificate.rows cert;
                Format.printf
                  "%-14s %-8s cert=%d/%d fitness=%6.2f%%  %s = %a@."
                  c.Circuit.name
                  (if v.Verify.verified then "VERIFIED" else "WRONG")
                  (Certificate.decided cert)
                  (Certificate.rows cert) v.Verify.fitness c.Circuit.output
                  Glc_logic.Expr.pp
                  (Glc_logic.Qm.to_expr ~inputs:c.Circuit.inputs
                     v.Verify.extracted))
              (Benchmarks.all ()));
        Format.printf
          "certified %d/%d truth-table row(s) symbolically; simulated \
           the rest@."
          !certified !total
      end;
      if !failures > 0 then begin
        Format.printf "%d circuit(s) not verified@." !failures;
        Ok exit_not_verified
      end
      else Ok 0
    end
    else
      match circuit with
      | None -> Error (`Msg "give a circuit name or --all")
      | Some (Error e) -> Error e
      | Some (Ok c) -> (
          match lint_guard ~no_lint ~protocol [ c ] with
          | Error code -> Ok code
          | Ok () ->
          if no_certify then begin
            let r, v = verify_one protocol fov c in
            Format.printf "%a@.%a@."
              (Report.pp_result ~output_name:c.Circuit.output)
              r Report.pp_verification v;
            if v.Verify.verified then Ok 0
            else begin
              List.iter
                (Format.printf "  %a@."
                   (Verify.pp_finding ~arity:r.Analyzer.arity))
                (Verify.diagnose r v);
              Ok exit_not_verified
            end
          end
          else begin
            let h = with_metrics metrics_file (fun m -> hybrid m c) in
            let v = h.Verify.h_report in
            let arity = Circuit.arity c in
            Format.printf "%a@." Certificate.pp h.Verify.h_certificate;
            Format.printf "@[<v>%-12s %-10s %6s %8s@,"
              "combination" "source" "output" "expected";
            for row = 0 to (1 lsl arity) - 1 do
              Format.printf "%-12s %-10s %6s %8s@,"
                (combination_string ~arity row)
                (Verify.provenance_string h.Verify.h_provenance.(row))
                (if Glc_logic.Truth_table.output v.Verify.extracted row
                 then "1"
                 else "0")
                (if Glc_logic.Truth_table.output v.Verify.expected row
                 then "1"
                 else "0")
            done;
            Format.printf "@]@.%a@." Report.pp_verification v;
            if v.Verify.verified then Ok 0 else Ok exit_not_verified
          end)
  in
  let all_opt =
    Arg.value
      (Arg.flag (Arg.info [ "all" ] ~doc:"Verify all benchmark circuits."))
  in
  let no_certify_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "no-certify" ]
            ~doc:"Skip the symbolic analyser and simulate every row \
                  (the pre-certificate behaviour)."))
  in
  let circuit_opt =
    let parse s = Ok (find_circuit s) in
    let print ppf = function
      | Ok c -> Format.pp_print_string ppf c.Circuit.name
      | Error _ -> Format.pp_print_string ppf "?"
    in
    Arg.value
      (Arg.pos 0
         (Arg.some (Arg.conv (parse, print)))
         None
         (Arg.info [] ~docv:"CIRCUIT" ~doc:"Circuit to verify."))
  in
  Cmd.v
    (Cmd.info "verify" ~exits:verdict_exits
       ~doc:"Verify a circuit against the intended truth table. The \
             symbolic analyser ($(b,glcv certify)) is consulted first \
             and only the rows it leaves undecided are simulated \
             ($(b,--no-certify) restores the simulate-everything \
             path). Runs the pre-flight lint first (exit 2 on lint \
             errors; $(b,--no-lint) skips it). Exits 0 when the \
             circuit verifies and 1 when it does not, so scripts and \
             CI can branch on the verdict.")
    Term.(
      term_result
        (const run $ protocol_term $ fov_opt $ margin_opt $ no_certify_opt
        $ all_opt $ no_lint_opt $ metrics_opt $ circuit_opt))

(* ---- certify ---- *)

let certify_exits =
  Cmd.Exit.info exit_not_verified
    ~doc:"a proved row contradicts the intended truth table — the \
          circuit computes the wrong function there, and no amount of \
          simulation will change that."
  :: Cmd.Exit.info exit_incomplete
    ~doc:"undecided row(s) remain: their steady-state bounds straddle \
          the logic threshold, so only simulation ($(b,glcv verify)) \
          can settle them."
  :: Cmd.Exit.defaults

let certify_cmd =
  let run protocol margin json all metrics_file circuit =
    let verdict_code certs =
      if
        List.exists (fun ct -> Certificate.contradictions ct <> []) certs
      then exit_not_verified
      else if
        List.exists (fun ct -> not (Certificate.fully_decided ct)) certs
      then exit_incomplete
      else 0
    in
    with_metrics metrics_file (fun metrics ->
        let certify c = Certificate.certify ~metrics ~margin ~protocol c in
        if all then begin
          let certs = List.map certify (Benchmarks.all ()) in
          if json then
            print_endline
              (Glc_json.to_string
                 (Glc_json.Array (List.map Certificate.json certs)))
          else begin
            List.iter (Format.printf "%a@.@." Certificate.pp) certs;
            let proved =
              List.fold_left (fun a ct -> a + Certificate.decided ct) 0 certs
            and rows =
              List.fold_left (fun a ct -> a + Certificate.rows ct) 0 certs
            in
            Format.printf
              "certified %d/%d truth-table row(s) across %d circuit(s)@."
              proved rows (List.length certs)
          end;
          Ok (verdict_code certs)
        end
        else
          match circuit with
          | None -> Error (`Msg "give a circuit name or --all")
          | Some (Error e) -> Error e
          | Some (Ok c) ->
              let ct = certify c in
              if json then print_string (Certificate.to_json ct ^ "\n")
              else Format.printf "%a@." Certificate.pp ct;
              Ok (verdict_code [ ct ]))
  in
  let json_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "json" ]
            ~doc:"Print the certificate(s) as deterministic JSON."))
  in
  let all_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "all" ] ~doc:"Certify all benchmark circuits."))
  in
  let circuit_opt =
    let parse s = Ok (find_circuit s) in
    let print ppf = function
      | Ok c -> Format.pp_print_string ppf c.Circuit.name
      | Error _ -> Format.pp_print_string ppf "?"
    in
    Arg.value
      (Arg.pos 0
         (Arg.some (Arg.conv (parse, print)))
         None
         (Arg.info [] ~docv:"CIRCUIT" ~doc:"Circuit to certify."))
  in
  Cmd.v
    (Cmd.info "certify" ~exits:certify_exits
       ~doc:"Prove truth-table rows symbolically, without simulating: \
             an interval steady-state analysis bounds the output \
             species for every input combination and rows whose bound \
             clears the threshold (with a $(b,--margin) noise margin) \
             are certified. Exits 0 when every row is proved and \
             matches the intent, 1 on a proved contradiction, 3 when \
             undecided rows remain.")
    Term.(
      term_result
        (const run $ protocol_term $ margin_opt $ json_opt $ all_opt
        $ metrics_opt $ circuit_opt))

(* ---- ensemble ---- *)

let ensemble_cmd =
  let module Ensemble = Glc_engine.Ensemble in
  let run protocol fov replicates jobs json no_lint metrics_file circuit =
    match lint_guard ~no_lint ~protocol [ circuit ] with
    | Error code -> Ok code
    | Ok () -> (
    match
      Ensemble.config ~replicates ~jobs ~seed:protocol.Protocol.seed
        ~protocol ~fov_ud:fov ()
    with
    | exception Invalid_argument m -> Error (`Msg m)
    | cfg ->
        install_interrupt_handlers ();
        let progress =
          (* live counter on stderr only when a human is watching; the
             report on stdout stays byte-deterministic either way *)
          if Unix.isatty Unix.stderr then
            Glc_engine.Progress.counter ~total:replicates ()
          else Glc_engine.Progress.null
        in
        let t =
          with_metrics metrics_file (fun metrics ->
              Ensemble.run ~progress ~metrics
                ~should_stop:interrupt_requested cfg circuit)
        in
        if json then print_string (Ensemble.to_json t ^ "\n")
        else Format.printf "%a@." Ensemble.pp t;
        if interrupt_requested () then begin
          Format.eprintf
            "interrupted: %d/%d replicate(s) completed, %d skipped; \
             report and metrics flushed@."
            (Array.length t.Ensemble.replicates)
            replicates
            (Array.length t.Ensemble.failures);
          Ok exit_interrupted
        end
        else if Array.length t.Ensemble.replicates = 0 then
          Error (`Msg "all replicates failed")
        else if not t.Ensemble.consensus_verified then
          Ok exit_not_verified
        else Ok 0)
  in
  let replicates_opt =
    Arg.value
      (Arg.opt Arg.int 16
         (Arg.info [ "replicates"; "n" ] ~docv:"N"
            ~doc:"Number of independent SSA replicates."))
  in
  let jobs_opt =
    Arg.value
      (Arg.opt Arg.int 0
         (Arg.info [ "jobs"; "j" ] ~docv:"J"
            ~doc:"Worker domains; 0 sizes the pool to the hardware. The \
                  report is bit-identical for any value."))
  in
  let json_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "json" ]
            ~doc:"Emit the machine-readable JSON report instead of text."))
  in
  Cmd.v
    (Cmd.info "ensemble" ~exits:verdict_exits
       ~doc:"Run N independent stochastic replicates of an experiment \
             across a pool of CPU domains and aggregate them into a \
             statistically qualified verification verdict (mean/CI of \
             PFoBE, majority-vote consensus logic, flaky combinations). \
             Deterministic: --seed fixes the result for any --jobs. \
             Runs the pre-flight lint first (exit 2 on lint errors; \
             $(b,--no-lint) skips it). Exits 0 when the consensus logic \
             matches the intent and 1 when it does not; execution \
             failures exit 123.")
    Term.(
      term_result
        (const run $ protocol_term $ fov_opt $ replicates_opt $ jobs_opt
        $ json_opt $ no_lint_opt $ metrics_opt $ circuit_arg))

(* ---- threshold ---- *)

let threshold_cmd =
  let run protocol circuit =
    let est = Glc_dvasim.Threshold.estimate ~protocol circuit in
    Format.printf "%a@." Glc_dvasim.Threshold.pp est;
    Ok 0
  in
  Cmd.v
    (Cmd.info "threshold"
       ~doc:"Estimate the output logic threshold (D-VASim's threshold \
             analysis).")
    Term.(term_result (const run $ protocol_term $ circuit_arg))

(* ---- delay ---- *)

let delay_cmd =
  let run protocol circuit =
    match Glc_dvasim.Prop_delay.worst_case ~protocol circuit with
    | Some m ->
        Format.printf "%a@." Glc_dvasim.Prop_delay.pp m;
        Ok 0
    | None ->
        Error (`Msg "no measurable output transition for this circuit")
  in
  Cmd.v
    (Cmd.info "delay"
       ~doc:"Measure the worst-case propagation delay (D-VASim's timing \
             analysis).")
    Term.(term_result (const run $ protocol_term $ circuit_arg))

(* ---- export ---- *)

let export_cmd =
  let run dir =
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    List.iter
      (fun c ->
        let base = Filename.concat dir c.Circuit.name in
        Glc_model.Sbml.write_file (base ^ ".sbml.xml") (Circuit.model c);
        Glc_sbol.Sbol_xml.write_file (base ^ ".sbol.xml")
          c.Circuit.document;
        Format.printf "wrote %s.{sbml,sbol}.xml@." base)
      (Benchmarks.all ());
    Ok 0
  in
  let dir_opt =
    Arg.value
      (Arg.opt Arg.string "models"
         (Arg.info [ "dir" ] ~docv:"DIR" ~doc:"Output directory."))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write SBML and SBOL files for all benchmark circuits.")
    Term.(term_result (const run $ dir_opt))

(* ---- vcd ---- *)

let vcd_cmd =
  let run protocol out circuit =
    let e = Experiment.run ~protocol circuit in
    Glc_core.Vcd.write_file ~threshold:protocol.Protocol.threshold out
      e.Experiment.trace;
    Format.printf "wrote %s (open with gtkwave)@." out;
    Ok 0
  in
  let out_opt =
    Arg.value
      (Arg.opt Arg.string "circuit.vcd"
         (Arg.info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output VCD file."))
  in
  Cmd.v
    (Cmd.info "vcd"
       ~doc:"Dump the digitised waveforms of an experiment as a VCD file \
             for EDA waveform viewers.")
    Term.(term_result (const run $ protocol_term $ out_opt $ circuit_arg))

(* ---- probe ---- *)

let probe_cmd =
  let run protocol circuit =
    let e = Experiment.run ~protocol circuit in
    Format.printf "%-10s %-6s %s@." "species" "code" "extracted logic";
    Array.iter
      (fun species ->
        if not (Array.mem species circuit.Circuit.inputs) then begin
          let r =
            Analyzer.run
              ~params:
                {
                  Analyzer.threshold = protocol.Protocol.threshold;
                  fov_ud = Analyzer.default_params.Analyzer.fov_ud;
                }
              {
                Analyzer.trace = e.Experiment.trace;
                inputs = circuit.Circuit.inputs;
                output = species;
              }
          in
          Format.printf "%-10s %-6s %a@." species
            (Format.asprintf "%a" Glc_logic.Truth_table.pp_code
               (Analyzer.extracted_table r))
            Glc_logic.Expr.pp
            (Analyzer.minimised_expr r)
        end)
      (Glc_ssa.Trace.names e.Experiment.trace);
    Ok 0
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:"Extract the logic of every internal species from one \
             experiment (intermediate-component analysis).")
    Term.(term_result (const run $ protocol_term $ circuit_arg))

(* ---- sweep ---- *)

let sweep_cmd =
  let run total hold seed thresholds circuit =
    Format.printf "%9s %-9s %8s %10s  %s@." "threshold" "verdict" "fitness"
      "total-var" "extracted";
    List.iter
      (fun threshold ->
        let protocol =
          Protocol.make ~total_time:total ~hold_time:hold ~seed ~threshold
            ()
        in
        let r, v = verify_one protocol 0.25 circuit in
        let total_var =
          Array.fold_left
            (fun acc c -> acc + c.Analyzer.variations)
            0 r.Analyzer.cases
        in
        Format.printf "%9g %-9s %7.2f%% %10d  %a@." threshold
          (if v.Verify.verified then "verified" else "WRONG")
          r.Analyzer.fitness total_var Glc_logic.Expr.pp r.Analyzer.expr)
      thresholds;
    Ok 0
  in
  let thresholds_opt =
    Arg.value
      (Arg.opt
         positive_floats
         [ 3.; 8.; 15.; 25.; 40.; 60.; 80.; 90. ]
         (Arg.info [ "thresholds" ] ~docv:"T1,T2,..."
            ~doc:"Threshold values to sweep (the Fig. 5 study)."))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Analyse a circuit across threshold values (the paper's \
             Fig. 5 robustness study).")
    Term.(
      term_result
        (const run $ total_opt $ hold_opt $ seed_opt $ thresholds_opt
        $ circuit_arg))

(* ---- robustness ---- *)

let robustness_cmd =
  let run protocol trials spread circuit =
    let points =
      Glc_core.Robustness.threshold_window ~protocol circuit
    in
    Format.printf "%9s %-9s %8s %10s@." "threshold" "verdict" "fitness"
      "total-var";
    List.iter
      (fun p ->
        Format.printf "%9g %-9s %7.2f%% %10d@."
          p.Glc_core.Robustness.w_threshold
          (if p.Glc_core.Robustness.w_verified then "verified" else "WRONG")
          p.Glc_core.Robustness.w_fitness
          p.Glc_core.Robustness.w_variations)
      points;
    (match Glc_core.Robustness.operating_range points with
    | Some (lo, hi) ->
        Format.printf "@.operating window: %g .. %g molecules@." lo hi
    | None -> Format.printf "@.no verified operating point@.");
    let y =
      Glc_core.Robustness.parametric_yield ~protocol ~trials ~spread
        circuit
    in
    Format.printf "parametric yield (spread %.0f%%): %a@." (spread *. 100.)
      Glc_core.Robustness.pp_yield y;
    Ok 0
  in
  let trials_opt =
    Arg.value
      (Arg.opt Arg.int 20
         (Arg.info [ "trials" ] ~docv:"N"
            ~doc:"Monte-Carlo trials for the parametric yield."))
  in
  let spread_opt =
    Arg.value
      (Arg.opt Arg.float 0.2
         (Arg.info [ "spread" ] ~docv:"SIGMA"
            ~doc:"Log-normal spread of the part parameters."))
  in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:"Threshold operating window and Monte-Carlo parametric yield \
             of a circuit.")
    Term.(
      term_result
        (const run $ protocol_term $ trials_opt $ spread_opt $ circuit_arg))

(* ---- campaign ---- *)

(* Resumable batch verification over a declarative grid (lib/campaign):
   plan the grid, persist every job result in an on-disk store, journal
   the lifecycle, resume after a kill, and render a deterministic
   report. *)

module Campaign = struct
  module Grid = Glc_campaign.Grid
  module Store = Glc_campaign.Store
  module Journal = Glc_campaign.Journal
  module Runner = Glc_campaign.Runner
  module Resume = Glc_campaign.Resume

  let dir_opt =
    Arg.required
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "dir"; "d" ] ~docv:"DIR"
            ~doc:"Campaign directory (manifest, journal, result store)."))

  let jobs_opt =
    Arg.value
      (Arg.opt Arg.int 0
         (Arg.info [ "jobs"; "j" ] ~docv:"J"
            ~doc:"Worker domains per job; 0 sizes the pool to the \
                  hardware. Results are bit-identical for any value."))

  let limit_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.int) None
         (Arg.info [ "limit" ] ~docv:"N"
            ~doc:"Stop after N jobs (the rest stay pending; exit 3). \
                  Useful for incremental draining and for testing \
                  resume."))

  let progress () =
    if Unix.isatty Unix.stderr then Some (Runner.counter_progress ())
    else None

  let summarize (store : Store.t) (spec : Grid.spec)
      (s : Runner.summary) =
    Format.printf
      "campaign %s: attempted %d job(s), %d succeeded, %d failed, %d \
       still pending@."
      (Store.dir store) s.Runner.ran s.Runner.succeeded s.Runner.failed
      s.Runner.remaining;
    ignore spec;
    if s.Runner.failed > 0 || s.Runner.remaining > 0 then exit_incomplete
    else 0

  let drain ~jobs ~limit ~metrics_file ~dir =
    install_interrupt_handlers ();
    with_metrics metrics_file (fun metrics ->
        match
          Resume.run ~jobs ?limit ?on_progress:(progress ()) ~metrics
            ~should_stop:interrupt_requested ~dir ()
        with
        | Error m -> Error (`Msg m)
        | Ok (store, spec, summary) ->
            let code = summarize store spec summary in
            if interrupt_requested () then begin
              Format.printf
                "campaign interrupted: store and journal flushed; finish \
                 with `glcv campaign resume --dir %s`@."
                dir;
              Ok exit_interrupted
            end
            else Ok code)

  let run_cmd =
    let run dir circuits thresholds fovs input_highs replicates seed total
        hold jobs limit no_lint metrics_file =
      match
        let grid =
          Grid.make ~thresholds ~fov_uds:fovs
            ~input_highs:
              (match input_highs with
              | [] -> [ None ]
              | hs -> List.map Option.some hs)
            ~replicate_counts:replicates circuits
        in
        Grid.spec ~seed ~total_time:total ~hold_time:hold grid
      with
      | exception Invalid_argument m -> Error (`Msg m)
      | spec -> (
          (* pre-flight: lint every (circuit, threshold) cell of the
             grid before anything is persisted or simulated *)
          let guard =
            if no_lint then Ok ()
            else
              let cs =
                List.filter_map
                  (fun name -> Result.to_option (find_circuit name))
                  circuits
              in
              List.fold_left
                (fun acc threshold ->
                  match acc with
                  | Error _ -> acc
                  | Ok () -> (
                      match
                        Protocol.make ~total_time:total ~hold_time:hold
                          ~seed ~threshold ()
                      with
                      | exception Invalid_argument _ -> Ok ()
                      | protocol -> lint_guard ~no_lint ~protocol cs))
                (Ok ()) thresholds
          in
          match guard with
          | Error code -> Ok code
          | Ok () -> (
          match Store.create ~dir (Grid.spec_to_json spec) with
          | Error m -> Error (`Msg m)
          | Ok _store -> drain ~jobs ~limit ~metrics_file ~dir))
    in
    let circuits_opt =
      Arg.required
        (Arg.opt (Arg.some (Arg.list Arg.string)) None
           (Arg.info [ "circuits"; "c" ] ~docv:"NAME,..."
              ~doc:"Circuits to sweep: benchmark names (see \
                    $(b,glcv list)) or 0xNN truth-table codes."))
    in
    let thresholds_opt =
      Arg.value
        (Arg.opt (Arg.list Arg.float)
           [ Protocol.default.Protocol.threshold ]
           (Arg.info [ "thresholds" ] ~docv:"T,..."
              ~doc:"Logic-threshold axis of the grid."))
    in
    let fovs_opt =
      Arg.value
        (Arg.opt (Arg.list Arg.float) [ 0.25 ]
           (Arg.info [ "fovs" ] ~docv:"F,..."
              ~doc:"FOV_UD axis of the grid (eq. 1)."))
    in
    let input_highs_opt =
      Arg.value
        (Arg.opt (Arg.list Arg.float) []
           (Arg.info [ "input-highs" ] ~docv:"H,..."
              ~doc:"Logic-1 input-amount axis; default: the threshold \
                    value, as in the paper."))
    in
    let replicates_opt =
      Arg.value
        (Arg.opt (Arg.list Arg.int) [ 16 ]
           (Arg.info [ "replicates"; "n" ] ~docv:"N,..."
              ~doc:"Ensemble-size axis of the grid."))
    in
    Cmd.v
      (Cmd.info "run" ~exits:campaign_exits
         ~doc:"Plan a fresh campaign (circuits × thresholds × FOV_UD × \
               input-high × replicates), persist its manifest under \
               $(b,--dir), and drain the jobs. Each job's result is \
               journaled and stored atomically, so a killed campaign \
               loses at most the in-flight job — $(b,glcv campaign \
               resume) finishes the rest. Deterministic: the final \
               report depends only on the manifest and the root seed.")
      Term.(
        term_result
          (const run $ dir_opt $ circuits_opt $ thresholds_opt $ fovs_opt
          $ input_highs_opt $ replicates_opt $ seed_opt $ total_opt
          $ hold_opt $ jobs_opt $ limit_opt $ no_lint_opt $ metrics_opt))

  let resume_cmd =
    let run dir jobs limit metrics_file =
      drain ~jobs ~limit ~metrics_file ~dir
    in
    Cmd.v
      (Cmd.info "resume" ~exits:campaign_exits
         ~doc:"Resume an interrupted campaign: re-read the manifest and \
               journal, skip every job whose result is already stored, \
               re-queue and run the rest. With the same root seed the \
               final report is byte-identical to an uninterrupted run.")
      Term.(
        term_result
          (const run $ dir_opt $ jobs_opt $ limit_opt $ metrics_opt))

  let status_cmd =
    let run dir =
      match Resume.status ~dir with
      | Error m -> Error (`Msg m)
      | Ok st ->
          Format.printf "campaign %s: %d/%d job(s) done, %d pending@." dir
            st.Resume.s_done st.Resume.s_total
            (List.length st.Resume.s_pending);
          (match st.Resume.s_jobs_per_second with
          | Some rate ->
              Format.printf "  throughput %.3g job(s)/s%s@." rate
                (match st.Resume.s_eta_seconds with
                | Some eta -> Printf.sprintf ", ETA %.0f s" eta
                | None -> "")
          | None -> ());
          List.iter
            (fun (id, n) ->
              if n > 1 then
                Format.printf "  %s: %d attempt(s)@." id n)
            st.Resume.s_attempts;
          List.iter
            (fun (id, e) -> Format.printf "  %s: last failure: %s@." id e)
            st.Resume.s_failures;
          List.iter
            (fun id -> Format.printf "  pending: %s@." id)
            st.Resume.s_pending;
          Ok (if st.Resume.s_done = st.Resume.s_total then 0
              else exit_incomplete)
    in
    Cmd.v
      (Cmd.info "status" ~exits:campaign_exits
         ~doc:"Progress of a campaign from its store and journal: done \
               vs pending jobs, attempt counts, last failures. Exits 0 \
               when complete, 3 otherwise.")
      Term.(term_result (const run $ dir_opt))

  let report_cmd =
    let run dir json =
      match Resume.load ~dir with
      | Error m -> Error (`Msg m)
      | Ok (store, spec) ->
          if json then print_string (Store.report_json store spec ^ "\n")
          else Format.printf "%a@." Store.pp_report (store, spec);
          let ls = Store.lines store spec in
          Ok
            (if List.exists (fun l -> not l.Store.l_done) ls then
               exit_incomplete
             else if List.exists (fun l -> not l.Store.l_verified) ls then
               exit_not_verified
             else 0)
    in
    let json_opt =
      Arg.value
        (Arg.flag
           (Arg.info [ "json" ]
              ~doc:"Emit the machine-readable JSON report. Deterministic: \
                    a resumed campaign renders byte-identically to an \
                    uninterrupted one with the same seed."))
    in
    Cmd.v
      (Cmd.info "report" ~exits:campaign_exits
         ~doc:"Render the campaign report from the result store, in grid \
               order. Exits 0 when every job is done and verified, 1 \
               when some job's consensus logic is wrong, 3 when jobs \
               are missing.")
      Term.(term_result (const run $ dir_opt $ json_opt))

  let group =
    Cmd.group
      (Cmd.info "campaign" ~exits:campaign_exits
         ~doc:"Resumable batch-verification campaigns with an on-disk \
               result store: $(b,run), $(b,status), $(b,resume), \
               $(b,report).")
      [ run_cmd; resume_cmd; status_cmd; report_cmd ]
end

(* ---- space ---- *)

(* The function-space atlas (lib/space): verify a whole n-input
   Boolean-function space through the campaign stack — certified-first,
   stochastic ensembles only for the rows the interval analysis leaves
   undecided — measure worst-case propagation delays on the ODE limit,
   and render Pareto frontiers (PFoBE × delay × gate cost) per NPN
   class; plus a deterministic, journaled GA that evolves NOT/NOR
   netlists toward a target function. *)

module Space = struct
  module Grid = Glc_campaign.Grid
  module Store = Glc_campaign.Store
  module Resume = Glc_campaign.Resume
  module Atlas = Glc_space.Atlas
  module Evolve = Glc_space.Evolve

  let dir_opt =
    Arg.required
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "dir"; "d" ] ~docv:"DIR"
            ~doc:"Atlas directory — a regular campaign directory \
                  (manifest, journal, result store) whose jobs are the \
                  functions of the space, so $(b,glcv campaign \
                  status/report) work on it too."))

  let inputs_opt =
    Arg.value
      (Arg.opt Arg.int 3
         (Arg.info [ "inputs" ] ~docv:"N"
            ~doc:"Function arity (2..4). The 3-input space has 256 \
                  functions; the 4-input space has 65,536 and \
                  requires $(b,--sample)."))

  let sample_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.int) None
         (Arg.info [ "sample" ] ~docv:"N"
            ~doc:"Verify a seeded uniform sample of N functions \
                  instead of the whole space (deterministic for a \
                  fixed $(b,--seed))."))

  let replicates_opt =
    Arg.value
      (Arg.opt Arg.int 16
         (Arg.info [ "replicates"; "n" ] ~docv:"N"
            ~doc:"Ensemble size for functions the symbolic \
                  certificate leaves undecided."))

  let certified_only_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "certified-only" ]
            ~doc:"Run only the functions whose truth table certifies \
                  fully by interval analysis; the rest stay pending \
                  (exit 3). No stochastic simulation at all — this is \
                  the cheap CI slice."))

  let config inputs sample seed replicates threshold total hold =
    {
      Atlas.inputs;
      sample;
      seed;
      replicates;
      threshold;
      total_time = total;
      hold_time = hold;
    }

  (* an existing directory keeps its own manifest (that is what makes
     re-running the same command a resume); tell the user when their
     flags disagree with it *)
  let note_existing_plan ~dir spec =
    match Resume.load ~dir with
    | Error _ -> ()
    | Ok (_store, stored) ->
        if Grid.spec_to_json stored <> Grid.spec_to_json spec then
          Printf.eprintf
            "note: %s already holds an atlas plan; resuming it (the \
             planning flags of this invocation were ignored)\n\
             %!"
            dir

  let summarize dir (s : Atlas.summary) =
    Format.printf
      "space %s: %d function(s), %d done (%d verified), %d failed, %d \
       pending; delays %d/%d@."
      dir s.Atlas.a_functions s.Atlas.a_done s.Atlas.a_verified
      s.Atlas.a_failed s.Atlas.a_remaining s.Atlas.a_delays
      s.Atlas.a_delays_total;
    List.iter
      (fun (name, message) ->
        Format.printf "delay %s failed: %s@." name message)
      s.Atlas.a_delay_failures;
    if
      s.Atlas.a_remaining > 0 || s.Atlas.a_failed > 0
      || s.Atlas.a_delays < s.Atlas.a_delays_total
      || s.Atlas.a_delay_failures <> []
    then exit_incomplete
    else 0

  let run_cmd =
    let run dir inputs sample seed replicates threshold total hold
        certified_only jobs limit metrics_file =
      match
        Atlas.plan
          (config inputs sample seed replicates threshold total hold)
      with
      | exception Invalid_argument m -> Error (`Msg m)
      | spec ->
          note_existing_plan ~dir spec;
          install_interrupt_handlers ();
          with_metrics metrics_file (fun metrics ->
              match
                Atlas.run ~jobs ?limit
                  ?on_progress:(Campaign.progress ())
                  ~metrics ~should_stop:interrupt_requested
                  ~certified_only ~dir spec
              with
              | Error m -> Error (`Msg m)
              | Ok summary ->
                  let code = summarize dir summary in
                  if interrupt_requested () then begin
                    Format.printf
                      "space interrupted: store and journal flushed; \
                       finish with `glcv space run --dir %s`@."
                      dir;
                    Ok exit_interrupted
                  end
                  else Ok code)
    in
    Cmd.v
      (Cmd.info "run" ~exits:campaign_exits
         ~doc:"Verify every function of the n-input space (or a seeded \
               sample): plan one campaign job per function under \
               $(b,--dir), certify each truth table symbolically, \
               simulate only the undecided ones, then measure each \
               circuit's worst-case propagation delay on the ODE \
               limit. Killable and resumable: re-running the same \
               command skips everything already stored.")
      Term.(
        term_result
          (const run $ dir_opt $ inputs_opt $ sample_opt $ seed_opt
          $ replicates_opt $ threshold_opt $ total_opt $ hold_opt
          $ certified_only_opt $ Campaign.jobs_opt $ Campaign.limit_opt
          $ metrics_opt))

  let status_cmd =
    let run dir =
      match Resume.status ~dir with
      | Error m -> Error (`Msg m)
      | Ok st ->
          let delays =
            match Resume.load ~dir with
            | Ok (store, spec) -> Some (Atlas.delay_coverage store spec)
            | Error _ -> None
          in
          Format.printf "space %s: %d/%d function(s) done, %d pending@."
            dir st.Resume.s_done st.Resume.s_total
            (List.length st.Resume.s_pending);
          (match delays with
          | Some (m, t) -> Format.printf "  delays measured: %d/%d@." m t
          | None -> ());
          (match st.Resume.s_jobs_per_second with
          | Some rate ->
              Format.printf "  throughput %.3g function(s)/s%s@." rate
                (match st.Resume.s_eta_seconds with
                | Some eta -> Printf.sprintf ", ETA %.0f s" eta
                | None -> "")
          | None -> ());
          List.iter
            (fun (id, e) -> Format.printf "  %s: last failure: %s@." id e)
            st.Resume.s_failures;
          let complete =
            st.Resume.s_done = st.Resume.s_total
            && match delays with Some (m, t) -> m >= t | None -> false
          in
          Ok (if complete then 0 else exit_incomplete)
    in
    Cmd.v
      (Cmd.info "status" ~exits:campaign_exits
         ~doc:"Progress of an atlas run: functions done vs pending and \
               delay-measurement coverage. Exits 0 when the atlas is \
               complete, 3 otherwise.")
      Term.(term_result (const run $ dir_opt))

  let report_cmd =
    let write file s =
      let oc = open_out file in
      output_string oc s;
      close_out oc;
      Printf.eprintf "wrote %s\n%!" file
    in
    let run dir json out atlas_out =
      match Resume.load ~dir with
      | Error m -> Error (`Msg m)
      | Ok (store, spec) -> (
          let doc = Atlas.space_json store spec in
          (match out with Some f -> write f doc | None -> ());
          let atlas_result =
            match atlas_out with
            | None -> Ok ()
            | Some f -> Result.map (write f) (Atlas.markdown doc)
          in
          match atlas_result with
          | Error m -> Error (`Msg m)
          | Ok () -> (
              let render_stdout =
                if json then Ok (print_string (doc ^ "\n"))
                else if out = None && atlas_out = None then
                  Result.map print_string (Atlas.markdown doc)
                else Ok ()
              in
              match render_stdout with
              | Error m -> Error (`Msg m)
              | Ok () ->
                  let ls = Store.lines store spec in
                  let delays_ok =
                    let m, t = Atlas.delay_coverage store spec in
                    m >= t
                  in
                  Ok
                    (if
                       List.exists (fun l -> not l.Store.l_done) ls
                       || not delays_ok
                     then exit_incomplete
                     else if
                       List.exists (fun l -> not l.Store.l_verified) ls
                     then exit_not_verified
                     else 0)))
    in
    let json_opt =
      Arg.value
        (Arg.flag
           (Arg.info [ "json" ]
              ~doc:"Print the SPACE.json document to stdout instead of \
                    the rendered markdown. Deterministic: a resumed \
                    atlas renders byte-identically to an uninterrupted \
                    one."))
    in
    let out_opt =
      Arg.value
        (Arg.opt (Arg.some Arg.string) None
           (Arg.info [ "out" ] ~docv:"FILE"
              ~doc:"Also write the SPACE.json document to FILE."))
    in
    let atlas_opt =
      Arg.value
        (Arg.opt (Arg.some Arg.string) None
           (Arg.info [ "atlas" ] ~docv:"FILE"
              ~doc:"Also render the markdown atlas (frontier tables \
                    per NPN class) to FILE — the same renderer as \
                    $(b,tools/gen_models_doc.exe --atlas), so the two \
                    can never drift."))
    in
    Cmd.v
      (Cmd.info "report" ~exits:campaign_exits
         ~doc:"Render the function-space report: SPACE.json (run \
               parameters, per-class summaries with bio flags, one \
               record per function, Pareto frontiers) and its markdown \
               atlas. Exits 0 when every function is done and \
               verified, 1 when some are wrong, 3 when functions or \
               delay measurements are missing.")
      Term.(
        term_result (const run $ dir_opt $ json_opt $ out_opt $ atlas_opt))

  let evolve_cmd =
    let run dir target inputs seed pop genes elite gens metrics_file =
      let code =
        match Cello.code_of_name target with
        | Some (arity, code) -> Ok (arity, code)
        | None -> (
            match int_of_string_opt target with
            | Some c when c >= 0 && c < 1 lsl (1 lsl inputs) ->
                Ok (inputs, c)
            | _ ->
                Error
                  (`Msg
                    (Printf.sprintf
                       "unknown target %S (expected a truth-table code \
                        such as 0x1C)"
                       target)))
      in
      match code with
      | Error _ as e -> e
      | Ok (arity, code) ->
          install_interrupt_handlers ();
          let cfg =
            {
              Evolve.v_target = code;
              v_arity = arity;
              v_seed = seed;
              v_pop = pop;
              v_genes = genes;
              v_elite = elite;
              v_max_gens = gens;
            }
          in
          let tty = Unix.isatty Unix.stderr in
          let on_progress g fit pfobe =
            if tty && g mod 50 = 0 then
              Printf.eprintf "\rgen %6d  fitness %7.3f  pfobe %5.1f%!"
                g fit pfobe
          in
          with_metrics metrics_file (fun metrics ->
              match
                Evolve.run ~metrics ~should_stop:interrupt_requested
                  ~on_progress ~dir cfg
              with
              | Error m -> Error (`Msg m)
              | Ok (Evolve.Interrupted g) ->
                  if tty then prerr_newline ();
                  Format.printf
                    "evolution interrupted before generation %d; \
                     journal flushed — re-run the same command to \
                     resume@."
                    g;
                  Ok exit_interrupted
              | Ok (Evolve.Finished o) ->
                  if tty then prerr_newline ();
                  Format.printf
                    "target %s %s at generation %d: %d gate(s), pfobe \
                     %.1f, certificate %s@.genome %s@."
                    (Cello.name_of_code ~arity code)
                    (if o.Evolve.o_reached then "reached"
                     else "NOT reached")
                    o.Evolve.o_generation o.Evolve.o_gates
                    o.Evolve.o_pfobe o.Evolve.o_provenance
                    o.Evolve.o_genome;
                  Ok (if o.Evolve.o_reached then 0 else exit_not_verified))
    in
    let target_arg =
      Arg.required
        (Arg.pos 0 (Arg.some Arg.string) None
           (Arg.info [] ~docv:"TARGET"
              ~doc:"Target truth-table code, e.g. $(b,0x1C); bare \
                    decimal is read at the $(b,--inputs) arity."))
    in
    let pop_opt =
      Arg.value
        (Arg.opt Arg.int 64
           (Arg.info [ "pop" ] ~docv:"N" ~doc:"Population size."))
    in
    let genes_opt =
      Arg.value
        (Arg.opt Arg.int 48
           (Arg.info [ "genes" ] ~docv:"N"
              ~doc:"Genome gene slots (upper bound on gate count). \
                    Surplus slots are inactive genetic material — \
                    neutral drift through them is what crosses fitness \
                    plateaus, so more is usually better than a larger \
                    population."))
    in
    let elite_opt =
      Arg.value
        (Arg.opt Arg.int 4
           (Arg.info [ "elite" ] ~docv:"N"
              ~doc:"Genomes copied unchanged each generation."))
    in
    let gens_opt =
      Arg.value
        (Arg.opt Arg.int 2000
           (Arg.info [ "gens" ] ~docv:"N"
              ~doc:"Give up after N generations (exit 1)."))
    in
    Cmd.v
      (Cmd.info "evolve" ~exits:campaign_exits
         ~doc:"Evolve a NOT/NOR netlist toward TARGET with a \
               deterministic seeded GA: fitness is the PFoBE proxy \
               plus inverse gate cost, every generation is journaled \
               to the store under $(b,--dir) before the next begins, \
               and a killed run resumes byte-identically. The winning \
               circuit is assembled and symbolically certified. Exits \
               0 when the target is reached, 1 otherwise.")
      Term.(
        term_result
          (const run $ dir_opt $ target_arg $ inputs_opt $ seed_opt
          $ pop_opt $ genes_opt $ elite_opt $ gens_opt $ metrics_opt))

  let group =
    Cmd.group
      (Cmd.info "space" ~exits:campaign_exits
         ~doc:"The function-space atlas: $(b,run) verifies every \
               function of an n-input space (certified-first, with \
               propagation delays), $(b,status) and $(b,report) render \
               progress and the SPACE.json/ATLAS.md Pareto-frontier \
               report, $(b,evolve) grows a circuit toward a target \
               function with a deterministic, resumable GA.")
      [ run_cmd; status_cmd; report_cmd; evolve_cmd ]
end

(* ---- serve / submit / status / result / scrape ---- *)

(* Verification-as-a-service (lib/serve): a daemon on a unix socket
   with a shared engine pool, an admission-controlled priority queue,
   and crash-safe persistence; plus the blocking client subcommands
   the CI smoke test and scripts drive it with. *)

module Serve = struct
  module Server = Glc_serve.Server
  module Client = Glc_serve.Client
  module W = Glc_serve.Protocol_wire
  module Json = Glc_json

  let serve_exits =
    Cmd.Exit.info exit_lint_error
      ~doc:"the daemon rejected the submission: the pre-flight lint \
            found errors (the GLC diagnostics are in the reply)."
    :: Cmd.Exit.info exit_incomplete
         ~doc:"the job is not done (result polled before completion), \
               or the daemon's queue is full (429; retry after the \
               hinted delay)."
    :: Cmd.Exit.info exit_not_verified
         ~doc:"the job ran and its consensus logic does $(b,not) match \
               the intent."
    :: Cmd.Exit.defaults

  let socket_opt =
    Arg.required
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "socket"; "s" ] ~docv:"PATH"
            ~doc:"Unix socket the daemon listens on."))

  let opt_float names docv doc =
    Arg.value
      (Arg.opt (Arg.some Arg.float) None (Arg.info names ~docv ~doc))

  let opt_int names docv doc =
    Arg.value
      (Arg.opt (Arg.some Arg.int) None (Arg.info names ~docv ~doc))

  let wait_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "wait"; "w" ]
            ~doc:"Block until the job finishes and print its result \
                  document; the exit code then reflects the verdict."))

  let timeout_opt =
    Arg.value
      (Arg.opt Arg.float 300.
         (Arg.info [ "timeout" ] ~docv:"SECONDS"
            ~doc:"Give up waiting after this long (the job keeps \
                  running server-side)."))

  (* The verdict is the document's top-level "verified" (certified and
     simulated jobs alike); documents stored before provenance existed
     only carry the ensemble consensus. *)
  let verdict_of_document doc =
    match Json.parse doc with
    | Error _ -> None
    | Ok v -> (
        match Option.bind (Json.member v "verified") Json.to_bool with
        | Some _ as b -> b
        | None ->
            Option.bind (Json.member v "ensemble") (fun e ->
                Option.bind (Json.member e "consensus_verified") Json.to_bool))

  let finish_result (resp : W.response) =
    match resp.W.status with
    | 200 -> (
        print_endline resp.W.resp_body;
        match verdict_of_document resp.W.resp_body with
        | Some true -> Ok 0
        | Some false -> Ok exit_not_verified
        | None -> Error (`Msg "result document carries no verdict"))
    | 409 ->
        prerr_endline resp.W.resp_body;
        Ok exit_incomplete
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "daemon answered %d: %s" resp.W.status
               resp.W.resp_body))

  let serve_cmd =
    let run socket state jobs queue seed total hold no_lint metrics_file =
      let metrics = Glc_obs.Metrics.create () in
      let cfg =
        Server.config ~socket_path:socket ~state_dir:state ~pool_jobs:jobs
          ~queue_capacity:queue ~seed ~total_time:total ~hold_time:hold
          ~lint_admission:(not no_lint) ~metrics ()
      in
      match Server.create cfg with
      | Error m -> Error (`Msg m)
      | Ok server ->
          Server.install_signal_handlers server;
          Printf.eprintf "glcv serve: listening on %s (state %s)\n%!"
            socket state;
          Server.run server;
          Printf.eprintf "glcv serve: stopped; state persisted under %s\n%!"
            state;
          (match metrics_file with
          | None -> ()
          | Some file ->
              let oc = open_out file in
              output_string oc (Glc_obs.Metrics.to_json metrics);
              output_char oc '\n';
              close_out oc;
              Printf.eprintf "metrics written to %s\n%!" file);
          Ok 0
    in
    let state_opt =
      Arg.required
        (Arg.opt (Arg.some Arg.string) None
           (Arg.info [ "state" ] ~docv:"DIR"
              ~doc:"State directory: result store, journal, persisted \
                    submissions, lock. A daemon killed with \
                    $(b,SIGKILL) resumes its acknowledged jobs from \
                    here on restart."))
    in
    let queue_opt =
      Arg.value
        (Arg.opt Arg.int 64
           (Arg.info [ "queue" ] ~docv:"N"
              ~doc:"Queue capacity; further submissions are rejected \
                    with 429 and a retry-after hint."))
    in
    let jobs_opt =
      Arg.value
        (Arg.opt Arg.int 0
           (Arg.info [ "jobs"; "j" ] ~docv:"J"
              ~doc:"Worker domains of the shared engine pool; 0 sizes \
                    it to the hardware."))
    in
    Cmd.v
      (Cmd.info "serve"
         ~doc:"Run the verification daemon: HTTP/1.1 + JSON over a unix \
               socket ($(b,POST /v1/jobs), $(b,GET /v1/jobs/ID/result), \
               $(b,GET /metrics), ...). Submissions are lint-checked at \
               admission, deduplicated by content-derived job id, \
               prioritised in a bounded queue, executed on a shared \
               domain pool, and persisted so a killed daemon resumes \
               on restart with byte-identical results. $(b,SIGINT)/\
               $(b,SIGTERM) shut down gracefully.")
      Term.(
        term_result
          (const run $ socket_opt $ state_opt $ jobs_opt $ queue_opt
          $ seed_opt $ total_opt $ hold_opt $ no_lint_opt $ metrics_opt))

  let submit_cmd =
    let run socket circuit threshold fov input_high replicates priority
        wait timeout =
      let client = Client.connect ~socket in
      match
        Client.submit ?threshold ?fov_ud:fov ?input_high ?replicates
          ?priority client ~circuit
      with
      | Error m -> Error (`Msg m)
      | Ok resp -> (
          match resp.W.status with
          | 200 | 202 -> (
              print_endline resp.W.resp_body;
              if not wait then Ok 0
              else
                match Client.job_id_of_response resp with
                | None -> Error (`Msg "daemon reply carried no job id")
                | Some id -> (
                    match
                      Client.result ~wait:true ~timeout_s:timeout client
                        ~id
                    with
                    | Error m -> Error (`Msg m)
                    | Ok resp -> finish_result resp))
          | 422 ->
              (* lint rejection: the GLC diagnostics are the reply *)
              prerr_endline resp.W.resp_body;
              Ok exit_lint_error
          | 429 ->
              prerr_endline resp.W.resp_body;
              Ok exit_incomplete
          | _ ->
              Error
                (`Msg
                  (Printf.sprintf "daemon answered %d: %s" resp.W.status
                     resp.W.resp_body)))
    in
    let circuit_opt =
      Arg.required
        (Arg.pos 0 (Arg.some Arg.string) None
           (Arg.info [] ~docv:"CIRCUIT"
              ~doc:"Circuit name or 0xNN truth-table code; resolved by \
                    the daemon."))
    in
    Cmd.v
      (Cmd.info "submit" ~exits:serve_exits
         ~doc:"Submit a verification job to a running daemon. Prints \
               the acknowledgement (with the content-derived job id); \
               with $(b,--wait), blocks for the result document and \
               exits 0/1 on the verdict. Duplicate submissions are \
               answered instantly with $(b,\"dedup\":true). Exits 2 \
               when the daemon's lint rejects the model, 3 when the \
               queue is full.")
      Term.(
        term_result
          (const run $ socket_opt $ circuit_opt
          $ opt_float [ "threshold"; "t" ] "MOLECULES" "Logic threshold."
          $ opt_float [ "fov" ] "FRACTION" "FOV_UD (eq. 1)."
          $ opt_float [ "input-high" ] "MOLECULES"
              "Logic-1 input amount (default: the threshold)."
          $ opt_int [ "replicates"; "n" ] "N" "SSA replicates."
          $ opt_int [ "priority" ] "P"
              "Scheduling priority 0–9 (higher runs earlier; default 5)."
          $ wait_opt $ timeout_opt))

  let status_cmd =
    let run socket id =
      let client = Client.connect ~socket in
      let reply = function
        | Error m -> Error (`Msg m)
        | Ok (resp : W.response) ->
            if resp.W.status = 200 then begin
              print_endline resp.W.resp_body;
              Ok 0
            end
            else
              Error
                (`Msg
                  (Printf.sprintf "daemon answered %d: %s" resp.W.status
                     resp.W.resp_body))
      in
      match id with
      | Some id -> reply (Client.status client ~id)
      | None -> reply (Client.list_jobs client)
    in
    let id_opt =
      Arg.value
        (Arg.pos 0 (Arg.some Arg.string) None
           (Arg.info [] ~docv:"JOB"
              ~doc:"Job id; omit to list every job the daemon knows."))
    in
    Cmd.v
      (Cmd.info "status"
         ~doc:"Query a job's lifecycle state (or list all jobs) from a \
               running daemon.")
      Term.(term_result (const run $ socket_opt $ id_opt))

  let result_cmd =
    let run socket id wait timeout =
      let client = Client.connect ~socket in
      match Client.result ~wait ~timeout_s:timeout client ~id with
      | Error m -> Error (`Msg m)
      | Ok resp -> finish_result resp
    in
    let id_arg =
      Arg.required
        (Arg.pos 0 (Arg.some Arg.string) None
           (Arg.info [] ~docv:"JOB" ~doc:"Job id."))
    in
    Cmd.v
      (Cmd.info "result" ~exits:serve_exits
         ~doc:"Fetch a job's result document. Exits 0 when the \
               consensus logic verified, 1 when it did not, 3 when the \
               job is still queued or running (use $(b,--wait)).")
      Term.(
        term_result (const run $ socket_opt $ id_arg $ wait_opt
        $ timeout_opt))

  let scrape_cmd =
    let run socket out =
      let client = Client.connect ~socket in
      match Client.metrics client with
      | Error m -> Error (`Msg m)
      | Ok text ->
          (match out with
          | None -> print_string text
          | Some file ->
              let oc = open_out file in
              output_string oc text;
              close_out oc;
              Printf.eprintf "metrics scrape written to %s\n%!" file);
          Ok 0
    in
    let out_opt =
      Arg.value
        (Arg.opt (Arg.some Arg.string) None
           (Arg.info [ "o"; "output" ] ~docv:"FILE"
              ~doc:"Write the scrape to FILE instead of stdout."))
    in
    Cmd.v
      (Cmd.info "scrape"
         ~doc:"Fetch the daemon's $(b,/metrics) endpoint: counters, \
               gauges and histograms in the text exposition format \
               Prometheus-style scrapers parse.")
      Term.(term_result (const run $ socket_opt $ out_opt))
end

let main =
  Cmd.group
    (Cmd.info "glcv" ~version:"1.0.0"
       ~doc:"Logic analysis and verification of n-input genetic logic \
             circuits (Baig & Madsen, DATE 2017).")
    [
      list_cmd; lint_cmd; synth_cmd; simulate_cmd; analyze_cmd;
      verify_cmd; certify_cmd; ensemble_cmd; threshold_cmd; delay_cmd;
      export_cmd;
      vcd_cmd; probe_cmd; sweep_cmd; robustness_cmd; Campaign.group;
      Space.group; Serve.serve_cmd; Serve.submit_cmd; Serve.status_cmd;
      Serve.result_cmd; Serve.scrape_cmd;
    ]

(* term_err: all evaluation errors — runtime failures (unknown circuit,
   unreadable campaign dir, ...) and usage mistakes alike — exit with
   some_error (123), matching the manpages' EXIT STATUS section. *)
let () = exit (Cmd.eval' ~term_err:Cmd.Exit.some_error main)
