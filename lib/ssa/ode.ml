type config = { t0 : float; t_end : float; dt : float; step : float }

let config ?(t0 = 0.) ?(dt = 1.) ?(step = 0.1) ~t_end () =
  if t_end < t0 then invalid_arg "Ode.config: t_end < t0";
  if step <= 0. then invalid_arg "Ode.config: step <= 0";
  if step > dt then invalid_arg "Ode.config: step > dt";
  { t0; t_end; dt; step }

(* One run's scratch space, allocated once so an RK4 step allocates
   nothing: the four stage derivatives, the stage state, the propensity
   buffer, and the compiled stoichiometry flattened reaction by
   reaction — reaction [j]'s entries are [st_species]/[st_delta] over
   [st_start.(j) .. st_start.(j + 1) - 1], in [c_deltas] order (which
   already excludes boundary species). *)
type work = {
  k1 : float array;
  k2 : float array;
  k3 : float array;
  k4 : float array;
  stage : float array;
  a : float array;
  st_start : int array;
  st_species : int array;
  st_delta : float array;
}

let work (c : Compiled.t) =
  let n = Array.length c.Compiled.c_initial in
  let reactions = c.Compiled.c_reactions in
  let nr = Array.length reactions in
  let st_start = Array.make (nr + 1) 0 in
  Array.iteri
    (fun j r ->
      st_start.(j + 1) <- st_start.(j) + List.length r.Compiled.c_deltas)
    reactions;
  let flat =
    Array.of_list
      (List.concat_map
         (fun r -> r.Compiled.c_deltas)
         (Array.to_list reactions))
  in
  {
    k1 = Array.make n 0.;
    k2 = Array.make n 0.;
    k3 = Array.make n 0.;
    k4 = Array.make n 0.;
    stage = Array.make n 0.;
    a = Array.make nr 0.;
    st_start;
    st_species = Array.map fst flat;
    st_delta = Array.map snd flat;
  }

(* dx/dt at the given state; boundary species have zero derivative.
   Sums in reaction order, then delta order, exactly as a walk over the
   compiled delta lists would. *)
let derivative w (c : Compiled.t) state dx =
  Array.fill dx 0 (Array.length dx) 0.;
  Compiled.propensities_into c state w.a;
  for j = 0 to Array.length w.a - 1 do
    let aj = w.a.(j) in
    for e = w.st_start.(j) to w.st_start.(j + 1) - 1 do
      let i = w.st_species.(e) in
      dx.(i) <- dx.(i) +. (w.st_delta.(e) *. aj)
    done
  done

(* Classic RK4, in place. The stage state is rebuilt from [state] before
   each of k2, k3 and k4, with each expression in the order of the
   textbook formula, so results do not depend on buffer reuse. *)
let rk4_step w c state h =
  let n = Array.length state in
  let half = h /. 2. in
  derivative w c state w.k1;
  for i = 0 to n - 1 do
    w.stage.(i) <- state.(i) +. (half *. w.k1.(i))
  done;
  derivative w c w.stage w.k2;
  for i = 0 to n - 1 do
    w.stage.(i) <- state.(i) +. (half *. w.k2.(i))
  done;
  derivative w c w.stage w.k3;
  for i = 0 to n - 1 do
    w.stage.(i) <- state.(i) +. (h *. w.k3.(i))
  done;
  derivative w c w.stage w.k4;
  let sixth = h /. 6. in
  for i = 0 to n - 1 do
    let dx =
      sixth
      *. (w.k1.(i) +. (2. *. w.k2.(i)) +. (2. *. w.k3.(i)) +. w.k4.(i))
    in
    state.(i) <- Float.max 0. (state.(i) +. dx)
  done

let run_compiled ?(events = Events.empty) ?until ?record cfg (c : Compiled.t)
    =
  let w = work c in
  let state = Array.copy c.Compiled.c_initial in
  (* the recorded view of [state]: the state itself, or the [record]
     species gathered into a buffer before each observation *)
  let names, view =
    match record with
    | None -> (c.Compiled.c_names, fun () -> state)
    | Some ids ->
        let idx = Array.map (Compiled.species_index c) ids in
        let sample = Array.make (Array.length idx) 0. in
        ( ids,
          fun () ->
            for k = 0 to Array.length idx - 1 do
              sample.(k) <- state.(idx.(k))
            done;
            sample )
  in
  let recorder =
    Trace.Recorder.create ~names ~initial:(view ()) ~t0:cfg.t0
      ~t_end:cfg.t_end ~dt:cfg.dt
  in
  Option.iter (Trace.Recorder.stop_when recorder) until;
  let _, events = Sim.catch_up c state ~t0:cfg.t0 events in
  Trace.Recorder.observe recorder cfg.t0 (view ());
  let t = ref cfg.t0 and events = ref events and running = ref true in
  while
    !running && !t < cfg.t_end && not (Trace.Recorder.stopped recorder)
  do
    let t_ev = Events.next_time !events in
    let t_stop = Float.min cfg.t_end t_ev in
    let h = Float.min cfg.step (t_stop -. !t) in
    if h > 0. then begin
      rk4_step w c state h;
      t := !t +. h;
      Trace.Recorder.observe recorder !t (view ())
    end
    else if t_ev <= cfg.t_end then
      match Sim.apply_events_at c state !events with
      | Some (te, _, rest) ->
          Trace.Recorder.observe recorder te (view ());
          t := te;
          events := rest
      | None -> running := false
    else running := false
  done;
  Trace.Recorder.finish recorder

let run ?events cfg model = run_compiled ?events cfg (Compiled.compile model)

let steady_state ?(max_time = 100_000.) ?(tolerance = 1e-9) model =
  let c = Compiled.compile model in
  let w = work c in
  let state = Array.copy c.Compiled.c_initial in
  let n = Array.length state in
  let before = Array.make n 0. in
  let h = 0.5 in
  let t = ref 0. in
  let settled = ref false in
  while (not !settled) && !t < max_time do
    Array.blit state 0 before 0 n;
    rk4_step w c state h;
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
