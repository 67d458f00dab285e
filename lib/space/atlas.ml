module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Runner = Glc_campaign.Runner
module Resume = Glc_campaign.Resume
module Certificate = Glc_symbolic.Certificate
module Circuit = Glc_gates.Circuit
module Protocol = Glc_dvasim.Protocol
module Ode = Glc_ssa.Ode
module Compiled = Glc_ssa.Compiled
module Events = Glc_ssa.Events
module Trace = Glc_ssa.Trace
module Truth_table = Glc_logic.Truth_table
module Metrics = Glc_obs.Metrics
module Pool = Glc_engine.Pool
module Json = Glc_json

type config = {
  inputs : int;
  sample : int option;
  seed : int;
  replicates : int;
  threshold : float;
  total_time : float;
  hold_time : float;
}

let default_config =
  let p = Protocol.default in
  {
    inputs = 3;
    sample = None;
    seed = 42;
    replicates = 16;
    threshold = p.Protocol.threshold;
    total_time = p.Protocol.total_time;
    hold_time = p.Protocol.hold_time;
  }

let plan cfg =
  if cfg.inputs < 2 || cfg.inputs > 4 then
    invalid_arg "Atlas.plan: inputs must be in 2..4";
  if cfg.inputs = 4 && cfg.sample = None then
    invalid_arg
      "Atlas.plan: the 4-input space has 65,536 functions — pass a sample \
       size";
  (* the stimulus must hold every input combination at least once, or
     an undecided function's ensemble would silently verify against a
     truncated table (the GLC011 lint condition, enforced up front
     because atlas jobs run unlinted) *)
  if cfg.total_time < cfg.hold_time *. float_of_int (1 lsl cfg.inputs)
  then
    invalid_arg
      (Printf.sprintf
         "Atlas.plan: total_time %g cannot hold all %d input \
          combinations for %g — raise --total to at least %g"
         cfg.total_time (1 lsl cfg.inputs) cfg.hold_time
         (cfg.hold_time *. float_of_int (1 lsl cfg.inputs)));
  let codes =
    match cfg.sample with
    | None -> Fn.all_codes ~arity:cfg.inputs
    | Some n -> Fn.sample_codes ~arity:cfg.inputs ~seed:cfg.seed n
  in
  let names = List.map (Fn.name_of_code ~arity:cfg.inputs) codes in
  let grid =
    Grid.make ~thresholds:[ cfg.threshold ]
      ~replicate_counts:[ cfg.replicates ] names
  in
  Grid.spec ~seed:cfg.seed ~total_time:cfg.total_time
    ~hold_time:cfg.hold_time grid

let prepare ~dir spec =
  let ( let* ) = Result.bind in
  if Sys.file_exists (Filename.concat dir "MANIFEST.json") then
    let* store, manifest = Store.load ~dir in
    let* stored = Grid.spec_of_json manifest in
    Ok (store, stored, Grid.spec_to_json stored <> Grid.spec_to_json spec)
  else
    let* store = Store.create ~dir (Grid.spec_to_json spec) in
    Ok (store, spec, false)

let certified_filter spec job =
  match Runner.resolve job.Grid.j_circuit with
  | Error _ -> true (* let the runner journal the failure *)
  | Ok circuit ->
      let protocol = Runner.job_protocol spec job in
      Certificate.fully_decided (Certificate.certify ~protocol circuit)

(* {2 Propagation delay} *)

type delay = {
  d_transitions : int;
  d_measured : int;
  d_worst : float option;
  d_from : int;
  d_to : int;
  d_rising : bool;
}

let delay_id name = "delay-" ^ name

let measure_delay ~protocol circuit =
  let arity = Circuit.arity circuit in
  let nc = 1 lsl arity in
  let expected = circuit.Circuit.expected in
  let threshold = protocol.Protocol.threshold in
  let settle = protocol.Protocol.hold_time in
  let timeout = 2.5 *. protocol.Protocol.hold_time in
  let level b =
    if b then protocol.Protocol.input_high else protocol.Protocol.input_low
  in
  let events ~from_row ~to_row =
    Events.of_list
      (List.concat
         (List.init arity (fun j ->
              let species = circuit.Circuit.inputs.(j) in
              [
                Events.set 0. species
                  (level (Circuit.input_value circuit ~row:from_row j));
                Events.set settle species
                  (level (Circuit.input_value circuit ~row:to_row j));
              ])))
  in
  let compiled = Compiled.compile (Circuit.model circuit) in
  (* the deterministic limit at a coarse unit step: accurate to the
     trace-sampling resolution the stochastic analyser itself uses, and
     cheap enough to scan all 256 functions in seconds *)
  let cfg = Ode.config ~dt:1.0 ~step:1.0 ~t_end:(settle +. timeout) () in
  let transitions =
    List.filter_map
      (fun r ->
        let r' = (r + 1) mod nc in
        let a = Truth_table.output expected r
        and b = Truth_table.output expected r' in
        if a = b then None else Some (r, r', b))
      (List.init nc Fun.id)
  in
  let worst = ref None and measured = ref 0 in
  List.iter
    (fun (from_row, to_row, rising) ->
      let crossed x = if rising then x >= threshold else x < threshold in
      (* only the output is read, and nothing after its first crossing
         can change the measurement: record that one column and stop
         integrating there (the trace is a prefix of the full one) *)
      let until t sample = t >= settle && crossed sample.(0) in
      let trace =
        Ode.run_compiled ~events:(events ~from_row ~to_row) ~until
          ~record:[| circuit.Circuit.output |] cfg compiled
      in
      let out = Trace.column trace circuit.Circuit.output in
      let n = Trace.length trace in
      let crossing = ref None in
      (try
         for k = 0 to n - 1 do
           let t = Trace.time trace k in
           if t >= settle && crossed out.(k) then begin
             crossing := Some (t -. settle);
             raise Exit
           end
         done
       with Exit -> ());
      match !crossing with
      | None -> ()
      | Some d ->
          incr measured;
          let better =
            match !worst with None -> true | Some (w, _, _, _) -> d > w
          in
          if better then worst := Some (d, from_row, to_row, rising))
    transitions;
  match !worst with
  | Some (w, f, t, r) ->
      {
        d_transitions = List.length transitions;
        d_measured = !measured;
        d_worst = Some w;
        d_from = f;
        d_to = t;
        d_rising = r;
      }
  | None ->
      {
        d_transitions = List.length transitions;
        d_measured = 0;
        d_worst = None;
        d_from = 0;
        d_to = 0;
        d_rising = false;
      }

let delay_doc ~name ~protocol d =
  let worst =
    match d.d_worst with
    | None -> Json.Null
    | Some w ->
        Json.Object
          [
            ("delay", Json.Number w);
            ("from_row", Json.Int d.d_from);
            ("to_row", Json.Int d.d_to);
            ("rising", Json.Bool d.d_rising);
          ]
  in
  Json.to_string
    (Json.Object
       [
         ("id", Json.String (delay_id name));
         ("kind", Json.String "delay");
         ("circuit", Json.String name);
         ("threshold", Json.Number protocol.Protocol.threshold);
         ("settle", Json.Number protocol.Protocol.hold_time);
         ("timeout", Json.Number (2.5 *. protocol.Protocol.hold_time));
         ("transitions", Json.Int d.d_transitions);
         ("measured", Json.Int d.d_measured);
         ("worst", worst);
       ])

let delay_of_doc doc =
  match Json.parse doc with
  | Error _ -> None
  | Ok v ->
      let int name = Option.bind (Json.member v name) Json.to_int in
      let transitions = Option.value ~default:0 (int "transitions")
      and measured = Option.value ~default:0 (int "measured") in
      let worst = Json.member v "worst" in
      let d =
        match worst with
        | Some (Json.Object _ as w) ->
            let wint name = Option.bind (Json.member w name) Json.to_int in
            {
              d_transitions = transitions;
              d_measured = measured;
              d_worst = Option.bind (Json.member w "delay") Json.to_number;
              d_from = Option.value ~default:0 (wint "from_row");
              d_to = Option.value ~default:0 (wint "to_row");
              d_rising =
                Option.value ~default:false
                  (Option.bind (Json.member w "rising") Json.to_bool);
            }
        | _ ->
            {
              d_transitions = transitions;
              d_measured = measured;
              d_worst = None;
              d_from = 0;
              d_to = 0;
              d_rising = false;
            }
      in
      Some d

let spec_circuits (spec : Grid.spec) = spec.Grid.grid.Grid.circuits

let circuit_job (spec : Grid.spec) name =
  (* atlas grids have one job per circuit (single threshold/replicates
     axis); the first expanded job of the name is it *)
  List.find (fun j -> j.Grid.j_circuit = name) (Grid.expand spec.Grid.grid)

let delay_coverage store spec =
  let names = spec_circuits spec in
  let measured =
    List.length
      (List.filter (fun n -> Store.mem store ~id:(delay_id n)) names)
  in
  (measured, List.length names)

(* {2 Running} *)

type summary = {
  a_functions : int;
  a_done : int;
  a_verified : int;
  a_failed : int;
  a_remaining : int;
  a_delays : int;
  a_delays_total : int;
  a_delay_failures : (string * string) list;
}

(* The delay phase: one pool task per completed function that lacks a
   delay doc. A task polls [should_stop] before it starts — a stopped
   task returns nothing and a later run measures that function — then
   resolves the circuit by name and measures it. Workers never touch
   [metrics] or the store: the calling domain stores the results, bumps
   the counters and observes the per-function seconds in plan order, so
   the store's contents do not depend on the worker count. A task that
   raises (a kinetic law evaluating to NaN, say) stores nothing and is
   returned as a (function, message) failure. *)
let measure_delays ~jobs ~metrics ~should_stop store spec =
  let live = Metrics.enabled metrics in
  let measured = Metrics.counter metrics "space.delays_measured" in
  let failed = Metrics.counter metrics "space.delay_failures" in
  let seconds = Metrics.histogram metrics "space.delay_seconds" in
  let pending =
    List.filter_map
      (fun name ->
        let job = circuit_job spec name in
        if
          Store.mem store ~id:(Grid.job_id job)
          && not (Store.mem store ~id:(delay_id name))
        then Some (name, Runner.job_protocol spec job)
        else None)
      (spec_circuits spec)
  in
  let results =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map pool
          (fun _ (name, protocol) ->
            if should_stop () then None
            else
              match Runner.resolve name with
              | Error _ -> None
              | Ok circuit ->
                  let t0 = if live then Glc_obs.Clock.now () else 0. in
                  let d = measure_delay ~protocol circuit in
                  Some (d, if live then Glc_obs.Clock.now () -. t0 else 0.))
          (Array.of_list pending))
  in
  List.mapi
    (fun i (name, protocol) ->
      match results.(i) with
      | Ok None -> None
      | Ok (Some (d, secs)) ->
          if live then Metrics.Histogram.observe seconds secs;
          Metrics.Counter.incr measured;
          Store.put store ~id:(delay_id name) (delay_doc ~name ~protocol d);
          None
      | Error e ->
          Metrics.Counter.incr failed;
          Some (name, e.Pool.message))
    pending
  |> List.filter_map Fun.id

let run ?(jobs = 0) ?limit ?on_progress ?metrics
    ?(should_stop = fun () -> false) ?(certified_only = false) ~dir spec =
  let ( let* ) = Result.bind in
  let m = Option.value ~default:Metrics.noop metrics in
  let* store, spec, _plan_ignored = prepare ~dir spec in
  let names = spec_circuits spec in
  Metrics.span m "space:synthesise" (fun () ->
      let synthesised = Metrics.counter m "space.functions_synthesised" in
      List.iter
        (fun name ->
          match Glc_gates.Cello.code_of_name name with
          | None -> ()
          | Some (arity, code) ->
              ignore (Fn.describe ~arity code);
              Metrics.Counter.incr synthesised)
        names);
  let filter = if certified_only then Some (certified_filter spec) else None in
  let* _store, spec, s =
    Resume.run ~jobs ?limit ?on_progress ?metrics ~should_stop ?filter ~dir ()
  in
  let* delay_failures =
    Metrics.span m "space:delays" (fun () ->
        Store.Lock.with_lock ~dir (fun () ->
            let jobs = if jobs = 0 then Pool.default_jobs () else jobs in
            measure_delays ~jobs ~metrics:m ~should_stop store spec))
  in
  let lines = Store.lines store spec in
  let done_ = List.filter (fun l -> l.Store.l_done) lines in
  let verified = List.filter (fun l -> l.Store.l_verified) done_ in
  Metrics.Counter.add
    (Metrics.counter m "space.functions_verified")
    (List.length verified);
  let delays, _ = delay_coverage store spec in
  Ok
    {
      a_functions = List.length names;
      a_done = List.length done_;
      a_verified = List.length verified;
      a_failed = s.Runner.failed;
      a_remaining = List.length lines - List.length done_;
      a_delays = delays;
      a_delays_total = List.length done_;
      a_delay_failures = delay_failures;
    }

(* {2 Reporting} *)

type fentry = {
  f_info : Fn.info;
  f_line : Store.job_line;
  f_delay : delay option;
}

let entries store spec =
  let lines = Store.lines store spec in
  List.filter_map
    (fun (l : Store.job_line) ->
      let name = l.Store.l_job.Grid.j_circuit in
      match Glc_gates.Cello.code_of_name name with
      | None -> None
      | Some (arity, code) ->
          let f_delay =
            Option.bind (Store.get store ~id:(delay_id name)) delay_of_doc
          in
          Some { f_info = Fn.describe ~arity code; f_line = l; f_delay })
    lines

(* the frontier coordinate: measured worst delay, or 0 for a function
   with no output-changing transition (the constants); [None] bars the
   entry from frontiers until its delay exists *)
let delay_value e =
  match e.f_delay with
  | Some d when d.d_transitions = 0 -> Some 0.
  | Some { d_worst = Some w; _ } -> Some w
  | _ -> None

let pareto entries =
  (* maximise PFoBE, minimise delay, minimise gates *)
  let coords =
    List.filter_map
      (fun e ->
        if not e.f_line.Store.l_done then None
        else
          match delay_value e with
          | None -> None
          | Some d -> Some (e, e.f_line.Store.l_fitness_mean, d, e.f_info.Fn.i_gates))
      entries
  in
  let dominated (_, p, d, g) (f', p', d', g') =
    ignore f';
    p' >= p && d' <= d && g' <= g && (p' > p || d' < d || g' < g)
  in
  List.filter_map
    (fun ((e, _, _, _) as c) ->
      if List.exists (fun c' -> c' != c && dominated c c') coords then None
      else Some e)
    coords

let orbit_size ~arity rep =
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun tr -> Hashtbl.replace distinct (Npn.apply ~arity tr rep) ())
    (Npn.transforms ~arity);
  Hashtbl.length distinct

let space_json store spec =
  let es = entries store spec in
  let arity =
    match es with e :: _ -> e.f_info.Fn.i_arity | [] -> 3
  in
  let full_space = 1 lsl (1 lsl arity) in
  let planned = List.length es in
  let done_ = List.filter (fun e -> e.f_line.Store.l_done) es in
  let verified = List.filter (fun e -> e.f_line.Store.l_verified) done_ in
  let by_provenance p =
    List.length
      (List.filter (fun e -> e.f_line.Store.l_provenance = p) done_)
  in
  (* classes present in this run, keyed by NPN representative *)
  let class_tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let rep = e.f_info.Fn.i_class in
      let old = try Hashtbl.find class_tbl rep with Not_found -> [] in
      Hashtbl.replace class_tbl rep (e :: old))
    es;
  let classes =
    Hashtbl.fold (fun rep ms acc -> (rep, List.rev ms) :: acc) class_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let global_frontier = pareto es in
  let class_frontiers =
    List.map (fun (rep, ms) -> (rep, pareto ms)) classes
  in
  let in_frontier frontier e = List.memq e frontier in
  let open Json in
  let count xs = Int (List.length xs) in
  let names es' = Array (List.map (fun e -> String e.f_info.Fn.i_name) es') in
  let class_json (rep, ms) =
    let rep_info = Fn.describe ~arity rep in
    let ms_done = List.filter (fun e -> e.f_line.Store.l_done) ms in
    let ms_verified =
      List.filter (fun e -> e.f_line.Store.l_verified) ms_done
    in
    let gates = List.map (fun e -> e.f_info.Fn.i_gates) ms in
    Object
      [
        ("rep", String rep_info.Fn.i_name);
        ("orbit", Int (orbit_size ~arity rep));
        ("planned", count ms);
        ("done", count ms_done);
        ("verified", count ms_verified);
        ("unate", Bool rep_info.Fn.i_unate);
        ("canalizing", Bool rep_info.Fn.i_canalizing);
        ("nested_canalizing", Bool rep_info.Fn.i_nested_canalizing);
        ("bio", Bool (rep_info.Fn.i_unate || rep_info.Fn.i_canalizing));
        ("min_gates", Int (List.fold_left min max_int gates));
        ("max_gates", Int (List.fold_left max 0 gates));
        ("frontier", names (List.assoc rep class_frontiers));
      ]
  in
  let delay_json d =
    Object
      [
        ("worst", Option.fold ~none:Null ~some:(fun w -> Number w) d.d_worst);
        ("transitions", Int d.d_transitions);
        ("measured", Int d.d_measured);
        ("from_row", Int d.d_from);
        ("to_row", Int d.d_to);
        ("rising", Bool d.d_rising);
      ]
  in
  let function_json e =
    let info = e.f_info and l = e.f_line in
    Object
      [
        ("name", String info.Fn.i_name);
        ("code", Int info.Fn.i_code);
        ("class", String (Fn.name_of_code ~arity info.Fn.i_class));
        ("gates", Int info.Fn.i_gates);
        ("depth", Int info.Fn.i_depth);
        ("unate", Bool info.Fn.i_unate);
        ("canalizing", Bool info.Fn.i_canalizing);
        ("nested_canalizing", Bool info.Fn.i_nested_canalizing);
        ("done", Bool l.Store.l_done);
        ("verified", Bool l.Store.l_verified);
        ("provenance", String l.Store.l_provenance);
        ( "pfobe",
          if l.Store.l_done then Number l.Store.l_fitness_mean else Null );
        ("certified_rows", Int l.Store.l_certified_rows);
        ("total_rows", Int l.Store.l_total_rows);
        ("delay", Option.fold ~none:Null ~some:delay_json e.f_delay);
        ( "class_frontier",
          Bool (in_frontier (List.assoc info.Fn.i_class class_frontiers) e) );
        ("global_frontier", Bool (in_frontier global_frontier e));
      ]
  in
  to_string
    (Object
       [
         ( "space",
           Object
             [
               ("version", Int 1);
               ("inputs", Int arity);
               ("functions", Int planned);
               ("full_space", Int full_space);
               ("sampled", Bool (planned < full_space));
               ("seed", Int spec.Grid.seed);
               ( "threshold",
                 Number
                   (match spec.Grid.grid.Grid.thresholds with
                   | t :: _ -> t
                   | [] -> Protocol.default.Protocol.threshold) );
               ("total_time", Number spec.Grid.total_time);
               ("hold_time", Number spec.Grid.hold_time);
               ( "replicates",
                 Int
                   (match spec.Grid.grid.Grid.replicate_counts with
                   | r :: _ -> r
                   | [] -> 16) );
               ("done", count done_);
               ("verified", count verified);
               ("certified", Int (by_provenance "certified"));
               ("simulated", Int (by_provenance "simulated"));
               ("classes", count classes);
             ] );
         ("classes", Array (List.map class_json classes));
         ("functions", Array (List.map function_json es));
         ("frontier", names global_frontier);
       ])

(* {2 Markdown rendering} *)

let markdown json =
  let ( let* ) = Result.bind in
  let* v = Json.parse json in
  let mem o name = Json.member o name in
  let str o name = Option.bind (mem o name) Json.to_str in
  let num o name = Option.bind (mem o name) Json.to_number in
  let int_ o name = Option.bind (mem o name) Json.to_int in
  let bool_ o name = Option.bind (mem o name) Json.to_bool in
  let list o name =
    Option.value ~default:[] (Option.bind (mem o name) Json.to_list)
  in
  let req what = function
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "not a SPACE.json document: missing %s" what)
  in
  let* space = req "space" (mem v "space") in
  let* inputs = req "space.inputs" (int_ space "inputs") in
  let i name = Option.value ~default:0 (int_ space name) in
  let fnum o name = Option.value ~default:Float.nan (num o name) in
  let fname o = Option.value ~default:"?" (str o "name") in
  let pct x = if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%.1f" x in
  let b = Buffer.create 16384 in
  let add = Buffer.add_string b in
  add "# Function-space atlas\n\n";
  add
    "<!-- Generated from SPACE.json — do not edit by hand. Regenerate with\n\
    \     `glcv space report --dir <dir> --out SPACE.json --atlas ATLAS.md` or\n\
    \     `dune exec tools/gen_models_doc.exe -- --atlas SPACE.json ATLAS.md`. -->\n\n";
  let sampled = Option.value ~default:false (bool_ space "sampled") in
  add
    (Printf.sprintf
       "**Space:** %d-input — %d%s function%s planned, %d verified of %d run \
        (%d certified symbolically, %d settled by stochastic ensemble), %d \
        NPN class%s in the run.\n"
       inputs (i "functions")
       (if sampled then Printf.sprintf " of %d (sampled)" (i "full_space")
        else "")
       (if i "functions" = 1 then "" else "s")
       (i "verified") (i "done") (i "certified") (i "simulated") (i "classes")
       (if i "classes" = 1 then "" else "es"));
  add
    (Printf.sprintf
       "**Protocol:** threshold %s molecules, %s/%s t.u. total/hold, %d \
        replicates for undecided functions, seed %d.\n\n"
       (pct (fnum space "threshold"))
       (pct (fnum space "total_time"))
       (pct (fnum space "hold_time"))
       (i "replicates") (i "seed"));
  add
    "Delay is the worst-case ODE-limit propagation delay over \
     output-changing adjacent input transitions (t.u. after the input \
     switch); gates count NOT/NOR gates in the minimal netlist. Bio flags \
     follow Ray / Das / Choudhury: U = unate, C = canalizing, N = \
     nested-canalizing — the function classes dominating natural \
     regulatory logic.\n\n";
  add "## NPN classes\n\n";
  add
    "| Class | Orbit | In run | Verified | Gates | Bio | Pareto frontier \
     (PFoBE ↑ × delay ↓ × gates ↓) |\n";
  add "|---|---|---|---|---|---|---|\n";
  let classes = list v "classes" in
  List.iter
    (fun c ->
      let bio =
        String.concat ""
          [
            (if Option.value ~default:false (bool_ c "unate") then "U" else "");
            (if Option.value ~default:false (bool_ c "canalizing") then "C"
             else "");
            (if Option.value ~default:false (bool_ c "nested_canalizing") then
               "N"
             else "");
          ]
      in
      let gates =
        let lo = Option.value ~default:0 (int_ c "min_gates")
        and hi = Option.value ~default:0 (int_ c "max_gates") in
        if lo = hi then string_of_int lo else Printf.sprintf "%d–%d" lo hi
      in
      let frontier =
        list c "frontier"
        |> List.filter_map Json.to_str
        |> List.map (Printf.sprintf "`%s`")
        |> String.concat " "
      in
      add
        (Printf.sprintf "| `%s` | %d | %d | %d/%d | %s | %s | %s |\n"
           (Option.value ~default:"?" (str c "rep"))
           (Option.value ~default:0 (int_ c "orbit"))
           (Option.value ~default:0 (int_ c "planned"))
           (Option.value ~default:0 (int_ c "verified"))
           (Option.value ~default:0 (int_ c "done"))
           gates bio frontier))
    classes;
  let functions = list v "functions" in
  let fn_by_name =
    let tbl = Hashtbl.create 300 in
    List.iter (fun f -> Hashtbl.replace tbl (fname f) f) functions;
    tbl
  in
  let delay_cell f =
    match mem f "delay" with
    | Some (Json.Object _ as d) -> (
        match num d "worst" with
        | Some w -> pct w
        | None ->
            if Option.value ~default:0 (int_ d "transitions") = 0 then "0"
            else "timeout")
    | _ -> "—"
  in
  let pfobe_cell f =
    match num f "pfobe" with Some p -> pct p | None -> "—"
  in
  add "\n## Global Pareto frontier\n\n";
  add "| Function | Class | PFoBE % | Delay (t.u.) | Gates | Depth | Provenance |\n";
  add "|---|---|---|---|---|---|---|\n";
  List.iter
    (fun name ->
      match Hashtbl.find_opt fn_by_name name with
      | None -> ()
      | Some f ->
          add
            (Printf.sprintf "| `%s` | `%s` | %s | %s | %d | %d | %s |\n" name
               (Option.value ~default:"?" (str f "class"))
               (pfobe_cell f) (delay_cell f)
               (Option.value ~default:0 (int_ f "gates"))
               (Option.value ~default:0 (int_ f "depth"))
               (Option.value ~default:"-" (str f "provenance"))))
    (list v "frontier" |> List.filter_map Json.to_str);
  add "\n## Functions by class\n";
  List.iter
    (fun c ->
      let rep = Option.value ~default:"?" (str c "rep") in
      let flags =
        List.filter_map
          (fun (key, label) ->
            if Option.value ~default:false (bool_ c key) then Some label
            else None)
          [
            ("unate", "unate");
            ("canalizing", "canalizing");
            ("nested_canalizing", "nested-canalizing");
          ]
      in
      add
        (Printf.sprintf "\n### Class `%s` — orbit %d%s\n\n" rep
           (Option.value ~default:0 (int_ c "orbit"))
           (match flags with
           | [] -> ""
           | l -> ", " ^ String.concat ", " l));
      add "| Function | PFoBE % | Delay | Gates | Depth | Verified | Provenance | Frontier |\n";
      add "|---|---|---|---|---|---|---|---|\n";
      List.iter
        (fun f ->
          if str f "class" = Some rep then
            let frontier =
              (if Option.value ~default:false (bool_ f "class_frontier") then
                 "class"
               else "")
              ^
              if Option.value ~default:false (bool_ f "global_frontier") then
                "+global"
              else ""
            in
            add
              (Printf.sprintf "| `%s` | %s | %s | %d | %d | %s | %s | %s |\n"
                 (fname f) (pfobe_cell f) (delay_cell f)
                 (Option.value ~default:0 (int_ f "gates"))
                 (Option.value ~default:0 (int_ f "depth"))
                 (if Option.value ~default:false (bool_ f "verified") then "yes"
                  else if Option.value ~default:false (bool_ f "done") then "NO"
                  else "—")
                 (Option.value ~default:"-" (str f "provenance"))
                 frontier))
        functions)
    classes;
  Ok (Buffer.contents b)
