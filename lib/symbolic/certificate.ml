module Circuit = Glc_gates.Circuit
module Protocol = Glc_dvasim.Protocol
module Truth_table = Glc_logic.Truth_table
module Metrics = Glc_obs.Metrics

type verdict = Proved_high | Proved_low | Undecided

type row = {
  cr_row : int;
  cr_bounds : Interval.t;
  cr_verdict : verdict;
  cr_expected : bool;
  cr_iterations : int;
  cr_converged : bool;
}

type t = {
  c_circuit : string;
  c_output : string;
  c_arity : int;
  c_threshold : float;
  c_margin : float;
  c_rows : row array;
}

let default_margin = 4.0

let decide ~threshold ~margin iv =
  let lo = Interval.lo iv and hi = Interval.hi iv in
  if Float.is_finite lo && lo -. (margin *. sqrt (Float.max lo 1.)) > threshold
  then Proved_high
  else if
    Float.is_finite hi && hi +. (margin *. sqrt (Float.max hi 1.)) < threshold
  then Proved_low
  else Undecided

let certify_model ?(metrics = Metrics.noop) ?(margin = default_margin)
    ?max_iters ~threshold ~input_high ~input_low ~inputs ~output ~expected
    (m : Glc_model.Model.t) =
  let arity = Array.length inputs in
  if Truth_table.arity expected <> arity then
    invalid_arg "Certificate.certify_model: expected table arity mismatch";
  let n_rows = 1 lsl arity in
  let rows =
    Array.init n_rows (fun row ->
        (* input j drives bit (arity - 1 - j): I1 is the MSB, matching
           Experiment.stimulus and Circuit.input_value *)
        let env =
          Array.to_list
            (Array.mapi
               (fun j name ->
                 let bit = (row lsr (arity - 1 - j)) land 1 = 1 in
                 (name, Interval.point (if bit then input_high else input_low)))
               inputs)
        in
        let ss = Steady_state.analyse ?max_iters ~inputs:env m in
        let bounds = Steady_state.bound ss output in
        {
          cr_row = row;
          cr_bounds = bounds;
          cr_verdict = decide ~threshold ~margin bounds;
          cr_expected = Truth_table.output expected row;
          cr_iterations = ss.Steady_state.ss_iterations;
          cr_converged = ss.Steady_state.ss_converged;
        })
  in
  if Metrics.enabled metrics then begin
    let proved =
      Array.fold_left
        (fun n r -> if r.cr_verdict <> Undecided then n + 1 else n)
        0 rows
    in
    let iterations =
      Array.fold_left (fun n r -> n + r.cr_iterations) 0 rows
    in
    Metrics.Counter.incr (Metrics.counter metrics "symbolic.certificates");
    Metrics.Counter.add (Metrics.counter metrics "symbolic.rows_proved") proved;
    Metrics.Counter.add
      (Metrics.counter metrics "symbolic.rows_undecided")
      (n_rows - proved);
    Metrics.Counter.add
      (Metrics.counter metrics "symbolic.fixpoint_iterations")
      iterations
  end;
  {
    c_circuit = m.Glc_model.Model.m_id;
    c_output = output;
    c_arity = arity;
    c_threshold = threshold;
    c_margin = margin;
    c_rows = rows;
  }

let certify ?metrics ?margin ?max_iters ?(protocol = Protocol.default)
    (c : Circuit.t) =
  let t =
    certify_model ?metrics ?margin ?max_iters
      ~threshold:protocol.Protocol.threshold
      ~input_high:protocol.Protocol.input_high
      ~input_low:protocol.Protocol.input_low ~inputs:c.Circuit.inputs
      ~output:c.Circuit.output ~expected:c.Circuit.expected
      (Circuit.model c)
  in
  { t with c_circuit = c.Circuit.name }

let rows t = Array.length t.c_rows
let decided t =
  Array.fold_left
    (fun n r -> if r.cr_verdict <> Undecided then n + 1 else n)
    0 t.c_rows

let undecided_rows t =
  Array.to_list t.c_rows
  |> List.filter_map (fun r ->
         if r.cr_verdict = Undecided then Some r.cr_row else None)

let fully_decided t = undecided_rows t = []

let proved_output t row =
  match t.c_rows.(row).cr_verdict with
  | Proved_high -> Some true
  | Proved_low -> Some false
  | Undecided -> None

let contradictions t =
  Array.to_list t.c_rows
  |> List.filter_map (fun r ->
         match r.cr_verdict with
         | Proved_high when not r.cr_expected -> Some r.cr_row
         | Proved_low when r.cr_expected -> Some r.cr_row
         | Proved_high | Proved_low | Undecided -> None)

let verified t =
  if contradictions t <> [] then Some false
  else if fully_decided t then Some true
  else None

let verdict_string = function
  | Proved_high -> "proved_high"
  | Proved_low -> "proved_low"
  | Undecided -> "undecided"

let combination ~arity row =
  String.init arity (fun j ->
      if (row lsr (arity - 1 - j)) land 1 = 1 then '1' else '0')

(* infinite bounds stay explicit strings rather than collapsing to
   null — an undecided row's upper bound is typically infinite and that
   is information *)
let bound_json x =
  if x = Float.infinity then Glc_json.String "inf"
  else if x = Float.neg_infinity then Glc_json.String "-inf"
  else Glc_json.Number x

let agrees r =
  match r.cr_verdict with
  | Undecided -> None
  | Proved_high -> Some r.cr_expected
  | Proved_low -> Some (not r.cr_expected)

let json t =
  let open Glc_json in
  let bool_or_null = Option.fold ~none:Null ~some:(fun b -> Bool b) in
  let row r =
    Object
      [
        ("row", Int r.cr_row);
        ("combination", String (combination ~arity:t.c_arity r.cr_row));
        ("lo", bound_json (Interval.lo r.cr_bounds));
        ("hi", bound_json (Interval.hi r.cr_bounds));
        ("verdict", String (verdict_string r.cr_verdict));
        ("expected", Bool r.cr_expected);
        ("agrees", bool_or_null (agrees r));
        ("iterations", Int r.cr_iterations);
        ("converged", Bool r.cr_converged);
      ]
  in
  Object
    [
      ("circuit", String t.c_circuit);
      ("output", String t.c_output);
      ("arity", Int t.c_arity);
      ("threshold", Number t.c_threshold);
      ("margin", Number t.c_margin);
      ("rows", Array (Array.to_list (Array.map row t.c_rows)));
      ("proved", Int (decided t));
      ("undecided", Int (rows t - decided t));
      ("verified", bool_or_null (verified t));
    ]

let to_json t = Glc_json.to_string (json t)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>certificate %s: output %s, threshold %g, margin %g sd@," t.c_circuit
    t.c_output t.c_threshold t.c_margin;
  Format.fprintf ppf "%-6s %-22s %-12s %-9s %s@," "combo" "steady-state bound"
    "verdict" "expected" "agrees";
  Array.iter
    (fun r ->
      Format.fprintf ppf "%-6s %-22s %-12s %-9b %s@,"
        (combination ~arity:t.c_arity r.cr_row)
        (Interval.to_string r.cr_bounds)
        (verdict_string r.cr_verdict) r.cr_expected
        (Option.fold ~none:"-" ~some:string_of_bool (agrees r)))
    t.c_rows;
  Format.fprintf ppf "%d/%d row(s) proved%s@]" (decided t) (rows t)
    (match verified t with
    | Some true -> ", verified"
    | Some false -> ", CONTRADICTS the intended table"
    | None -> ", undecided rows remain")
