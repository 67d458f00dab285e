module Sim = Glc_ssa.Sim

type order = Counting | Gray

type t = {
  total_time : float;
  hold_time : float;
  threshold : float;
  input_high : float;
  input_low : float;
  dt : float;
  seed : int;
  algorithm : Sim.algorithm;
  order : order;
}

let default =
  {
    total_time = 10_000.;
    hold_time = 1_000.;
    threshold = 15.;
    input_high = 15.;
    input_low = 0.;
    dt = 1.;
    seed = 42;
    algorithm = Sim.Direct;
    order = Counting;
  }

let make ?(total_time = default.total_time) ?(hold_time = default.hold_time)
    ?(threshold = default.threshold) ?input_high
    ?(input_low = default.input_low) ?(dt = default.dt)
    ?(seed = default.seed) ?(algorithm = default.algorithm)
    ?(order = default.order) () =
  let input_high =
    match input_high with Some h -> h | None -> threshold
  in
  let positive what x =
    if not (Float.is_finite x && x > 0.) then
      invalid_arg
        (Printf.sprintf "Protocol.make: %s = %g is not positive and finite"
           what x)
  in
  positive "total_time" total_time;
  positive "hold_time" hold_time;
  positive "threshold" threshold;
  positive "dt" dt;
  if input_low >= input_high then
    invalid_arg "Protocol.make: input_low >= input_high";
  { total_time; hold_time; threshold; input_high; input_low; dt; seed;
    algorithm; order }

let with_threshold p threshold =
  if not (Float.is_finite threshold && threshold > 0.) then
    invalid_arg "Protocol.with_threshold: not positive and finite";
  { p with threshold; input_high = threshold }

let slots p = int_of_float (Float.ceil (p.total_time /. p.hold_time))

let covers_all_rows p ~arity = slots p >= 1 lsl arity

let row_of_slot p ~arity slot =
  if slot < 0 then invalid_arg "Protocol.row_of_slot: negative slot";
  let s = slot mod (1 lsl arity) in
  match p.order with Counting -> s | Gray -> s lxor (s lsr 1)

let row_at p ~arity t =
  if t < 0. then invalid_arg "Protocol.row_at: negative time";
  row_of_slot p ~arity (int_of_float (Float.floor (t /. p.hold_time)))
