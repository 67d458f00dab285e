type config = { t0 : float; t_end : float; dt : float; step : float }

let config ?(t0 = 0.) ?(dt = 1.) ?(step = 0.1) ~t_end () =
  if t_end < t0 then invalid_arg "Ode.config: t_end < t0";
  if step <= 0. then invalid_arg "Ode.config: step <= 0";
  if step > dt then invalid_arg "Ode.config: step > dt";
  { t0; t_end; dt; step }

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

let run_compiled ?(events = Events.empty) cfg (c : Compiled.t) =
  let state = Array.copy c.Compiled.c_initial in
  let recorder =
    Trace.Recorder.create ~names:c.Compiled.c_names ~initial:state
      ~t0:cfg.t0 ~t_end:cfg.t_end ~dt:cfg.dt
  in
  let _, events = Sim.catch_up c state ~t0:cfg.t0 events in
  Trace.Recorder.observe recorder cfg.t0 state;
  let rec loop t events =
    if t < cfg.t_end then begin
      let t_ev = Events.next_time events in
      let t_stop = Float.min cfg.t_end t_ev in
      let h = Float.min cfg.step (t_stop -. t) in
      if h > 0. then begin
        rk4_step c state h;
        Trace.Recorder.observe recorder (t +. h) state;
        loop (t +. h) events
      end
      else if t_ev <= cfg.t_end then begin
        match Sim.apply_events_at c state events with
        | Some (te, _, rest) ->
            Trace.Recorder.observe recorder te state;
            loop te rest
        | None -> ()
      end
    end
  in
  loop cfg.t0 events;
  Trace.Recorder.finish recorder

let run ?events cfg model = run_compiled ?events cfg (Compiled.compile model)

let steady_state ?(max_time = 100_000.) ?(tolerance = 1e-9) model =
  let c = Compiled.compile model in
  let state = Array.copy c.Compiled.c_initial in
  let n = Array.length state in
  let h = 0.5 in
  let t = ref 0. in
  let settled = ref false in
  while (not !settled) && !t < max_time do
    let before = Array.copy state in
    rk4_step c state h;
    t := !t +. h;
    let change = ref 0. in
    for i = 0 to n - 1 do
      let scale = Float.max 1. (Float.abs before.(i)) in
      change :=
        Float.max !change (Float.abs (state.(i) -. before.(i)) /. scale)
    done;
    settled := !change /. h < tolerance
  done;
  Array.to_list (Array.mapi (fun i id -> (id, state.(i))) c.Compiled.c_names)
