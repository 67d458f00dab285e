(* Reference oracles for the ODE layer, kept out of the library on
   purpose: the allocating RK4 step and run loop the production
   integrator replaced (fresh arrays for every stage, stoichiometry read
   from the compiled delta lists), and the atlas delay measurement as a
   full-length trace followed by a crossing scan. The tests hold
   [Ode.run_compiled] and [Atlas.measure_delay] bit-identical to these. *)

module Compiled = Glc_ssa.Compiled
module Ode = Glc_ssa.Ode
module Sim = Glc_ssa.Sim
module Events = Glc_ssa.Events
module Trace = Glc_ssa.Trace
module Circuit = Glc_gates.Circuit
module Protocol = Glc_dvasim.Protocol
module Truth_table = Glc_logic.Truth_table

(* dx/dt at the given state; boundary species have zero derivative. *)
let derivative (c : Compiled.t) state dx =
  Array.fill dx 0 (Array.length dx) 0.;
  let a = Compiled.propensities c state in
  Array.iteri
    (fun j r ->
      List.iter
        (fun (i, d) ->
          if not c.Compiled.c_boundary.(i) then
            dx.(i) <- dx.(i) +. (d *. a.(j)))
        r.Compiled.c_deltas)
    c.Compiled.c_reactions;
  dx

let rk4_step (c : Compiled.t) state h =
  let n = Array.length state in
  let k1 = derivative c state (Array.make n 0.) in
  let mid1 = Array.mapi (fun i x -> x +. (h /. 2. *. k1.(i))) state in
  let k2 = derivative c mid1 (Array.make n 0.) in
  let mid2 = Array.mapi (fun i x -> x +. (h /. 2. *. k2.(i))) state in
  let k3 = derivative c mid2 (Array.make n 0.) in
  let last = Array.mapi (fun i x -> x +. (h *. k3.(i))) state in
  let k4 = derivative c last (Array.make n 0.) in
  Array.iteri
    (fun i x ->
      let dx =
        h /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i))
      in
      state.(i) <- Float.max 0. (x +. dx))
    state

let run_compiled ?(events = Events.empty) (cfg : Ode.config)
    (c : Compiled.t) =
  let state = Array.copy c.Compiled.c_initial in
  let recorder =
    Trace.Recorder.create ~names:c.Compiled.c_names ~initial:state
      ~t0:cfg.Ode.t0 ~t_end:cfg.Ode.t_end ~dt:cfg.Ode.dt
  in
  let _, events = Sim.catch_up c state ~t0:cfg.Ode.t0 events in
  Trace.Recorder.observe recorder cfg.Ode.t0 state;
  let rec loop t events =
    if t < cfg.Ode.t_end then begin
      let t_ev = Events.next_time events in
      let t_stop = Float.min cfg.Ode.t_end t_ev in
      let h = Float.min cfg.Ode.step (t_stop -. t) in
      if h > 0. then begin
        rk4_step c state h;
        Trace.Recorder.observe recorder (t +. h) state;
        loop (t +. h) events
      end
      else if t_ev <= cfg.Ode.t_end then begin
        match Sim.apply_events_at c state events with
        | Some (te, _, rest) ->
            Trace.Recorder.observe recorder te state;
            loop te rest
        | None -> ()
      end
    end
  in
  loop cfg.Ode.t0 events;
  Trace.Recorder.finish recorder

(* The atlas delay measurement before early stopping: every transition
   integrates the whole settle + timeout window, then the output column
   is scanned for the first threshold crossing after the switch. *)
let measure_delay ~protocol circuit : Glc_space.Atlas.delay =
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
      let trace =
        run_compiled ~events:(events ~from_row ~to_row) cfg compiled
      in
      let out = Trace.column trace circuit.Circuit.output in
      let crossing = ref None in
      (try
         for k = 0 to Trace.length trace - 1 do
           let t = Trace.time trace k in
           if t >= settle then begin
             let crossed =
               if rising then out.(k) >= threshold else out.(k) < threshold
             in
             if crossed then begin
               crossing := Some (t -. settle);
               raise Exit
             end
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
  let d_transitions = List.length transitions in
  match !worst with
  | Some (w, f, t, r) ->
      {
        Glc_space.Atlas.d_transitions;
        d_measured = !measured;
        d_worst = Some w;
        d_from = f;
        d_to = t;
        d_rising = r;
      }
  | None ->
      {
        Glc_space.Atlas.d_transitions;
        d_measured = 0;
        d_worst = None;
        d_from = 0;
        d_to = 0;
        d_rising = false;
      }
