module Model = Glc_model.Model

type algorithm =
  | Direct
  | Direct_full_recompute
  | Next_reaction
  | Tau_leaping of { epsilon : float }

type config = {
  t0 : float;
  t_end : float;
  dt : float;
  seed : int;
  algorithm : algorithm;
}

let config ?(t0 = 0.) ?(dt = 1.) ?(seed = 42) ?(algorithm = Direct) ~t_end ()
    =
  if t_end < t0 then invalid_arg "Sim.config: t_end < t0";
  if dt <= 0. then invalid_arg "Sim.config: dt <= 0";
  { t0; t_end; dt; seed; algorithm }

type stats = {
  reactions_fired : int;
  events_applied : int;
  final_state : (string * float) list;
}

(* Applies every event scheduled at the head time to [state]; returns
   that time, the number applied and the remaining schedule. *)
let apply_events_at (c : Compiled.t) state schedule =
  match Events.next schedule with
  | None -> None
  | Some (first, _) ->
      let t = first.Events.e_time in
      let rec go n schedule =
        match Events.next schedule with
        | Some (e, rest) when e.Events.e_time = t ->
            (match Compiled.species_index c e.e_species with
            | i -> state.(i) <- Float.max 0. e.e_value
            | exception Not_found ->
                invalid_arg
                  (Printf.sprintf "event on unknown species %S" e.e_species));
            go (n + 1) rest
        | Some _ | None -> (n, schedule)
      in
      let n, rest = go 0 schedule in
      Some (t, n, rest)

let catch_up c state ~t0 events =
  let rec go n events =
    match Events.next events with
    | Some (e, _) when e.Events.e_time <= t0 -> (
        match apply_events_at c state events with
        | Some (_, m, rest) -> go (n + m) rest
        | None -> (n, events))
    | Some _ | None -> (n, events)
  in
  go 0 events

let fire (c : Compiled.t) state mu =
  List.iter
    (fun (i, d) -> state.(i) <- Float.max 0. (state.(i) +. d))
    c.c_reactions.(mu).c_deltas

let sum = Array.fold_left ( +. ) 0.

let array_mem x a =
  let n = Array.length a in
  let rec go i = i < n && (a.(i) = x || go (i + 1)) in
  go 0

(* Selects a reaction index from propensities [a] given a uniform draw
   scaled by their sum. Floating-point rounding can leave the running
   cumulative sum short of [target] even though [target < sum a]; the
   scan must then fall back to the last reaction with positive
   propensity, never to a zero-propensity one (e.g. a reactant at count
   0), which must not fire. *)
let select a target =
  let n = Array.length a in
  let rec go i acc last =
    if i >= n then last
    else if a.(i) <= 0. then go (i + 1) acc last
    else
      let acc = acc +. a.(i) in
      if target < acc then i else go (i + 1) acc i
  in
  match go 0 0. (-1) with
  | -1 -> invalid_arg "Sim.select: no reaction has positive propensity"
  | i -> i

(* Per-run instrumentation totals, accumulated in plain mutable fields
   inside the hot loops and flushed to the metrics registry once per
   run — the inner loops never touch an atomic or a clock. *)
type tot = {
  mutable n_evals : int; (* propensity evaluations *)
  mutable n_heap : int; (* indexed-heap updates (next-reaction) *)
  mutable n_obs : int; (* recorder observations *)
  mutable n_rej : int; (* tau-leap steps rejected (negative overshoot) *)
}

let make_tot () = { n_evals = 0; n_heap = 0; n_obs = 0; n_rej = 0 }

(* The direct method in two propensity regimes sharing one loop. Sparse
   (the default): the cached array [a] is kept authoritative — after a
   firing only the reactions reachable from the fired reaction's deltas
   via the compile-time dependency closure are re-evaluated, and [a0] is
   recomputed by summing the cache. Because the cached entries equal
   fresh evaluations and the sum runs in the same index order, the RNG
   draw sequence — and therefore the trajectory — is byte-identical to
   the full-recompute reference, while propensity evaluations drop from
   O(R) to O(deps) per firing. Full recompute (the reference, kept for
   equivalence tests and the bench harness) re-evaluates every
   propensity at the top of every step. *)
let run_direct ~sparse rng (c : Compiled.t) cfg state events recorder tot =
  let fired = ref 0 and applied = ref 0 in
  let n_r = Array.length c.c_reactions in
  let a = Array.make n_r 0. in
  let observe t =
    tot.n_obs <- tot.n_obs + 1;
    Trace.Recorder.observe recorder t state
  in
  let refresh_all () =
    Compiled.propensities_into c state a;
    tot.n_evals <- tot.n_evals + n_r
  in
  let rec loop t events =
    if t < cfg.t_end then begin
      if not sparse then refresh_all ();
      let a0 = sum a in
      let t_ev = Events.next_time events in
      if a0 <= 0. then begin
        (* Nothing can fire: jump to the next intervention, if any. *)
        if t_ev <= cfg.t_end then begin
          match apply_events_at c state events with
          | Some (te, n, rest) ->
              applied := !applied + n;
              observe te;
              (* Events clamp arbitrary species: the cache is stale. *)
              if sparse then refresh_all ();
              loop te rest
          | None -> ()
        end
      end
      else begin
        let tau = Rng.exponential rng ~rate:a0 in
        let t' = t +. tau in
        if t' >= t_ev && t_ev <= cfg.t_end then begin
          match apply_events_at c state events with
          | Some (te, n, rest) ->
              applied := !applied + n;
              observe te;
              if sparse then refresh_all ();
              loop te rest
          | None -> assert false (* t_ev finite implies an event exists *)
        end
        else if t' < cfg.t_end then begin
          let mu = select a (Rng.float rng *. a0) in
          fire c state mu;
          incr fired;
          if sparse then
            tot.n_evals <-
              tot.n_evals + Compiled.refresh_affected c state mu a;
          observe t';
          loop t' events
        end
      end
    end
  in
  (* The caller has already applied the events at or before t0, so
     they are part of the recorded initial state. *)
  observe cfg.t0;
  if sparse then refresh_all ();
  loop cfg.t0 events;
  (!fired, !applied)

let run_next_reaction rng (c : Compiled.t) cfg state events recorder tot =
  let fired = ref 0 and applied = ref 0 in
  let n = Array.length c.c_reactions in
  let heap = Indexed_heap.create n in
  let a = Array.make n 0. in
  let observe t =
    tot.n_obs <- tot.n_obs + 1;
    Trace.Recorder.observe recorder t state
  in
  let draw_time t ai =
    if ai <= 0. then infinity else t +. Rng.exponential rng ~rate:ai
  in
  let redraw_all t =
    tot.n_evals <- tot.n_evals + n;
    tot.n_heap <- tot.n_heap + n;
    for i = 0 to n - 1 do
      a.(i) <- Compiled.propensity c state i;
      Indexed_heap.update heap i (draw_time t a.(i))
    done
  in
  observe cfg.t0;
  redraw_all cfg.t0;
  let rec loop events =
    let mu, t_mu = Indexed_heap.min heap in
    let t_ev = Events.next_time events in
    if Float.min t_mu t_ev >= cfg.t_end then ()
    else if t_ev <= t_mu then begin
      match apply_events_at c state events with
      | Some (te, m, rest) ->
          applied := !applied + m;
          observe te;
          (* Exponential memorylessness makes redrawing every clock after
             an intervention statistically exact. *)
          redraw_all te;
          loop rest
      | None -> assert false
    end
    else begin
      fire c state mu;
      incr fired;
      observe t_mu;
      (* The fired reaction always draws a fresh clock, even when its
         propensity does not depend on anything it changed (a pure birth
         reaction, say) — otherwise its old firing time would stay at the
         heap minimum and time would stop advancing. When [mu] is not in
         its own dependency closure its propensity is unchanged, so the
         cached value serves the redraw without an evaluation; the draw
         happens first to keep the RNG sequence identical to the
         re-evaluate-[mu]-first ordering this loop always had. *)
      let affected = Compiled.affected_reactions c mu in
      let n_aff = Array.length affected in
      tot.n_evals <- tot.n_evals + n_aff;
      tot.n_heap <- tot.n_heap + n_aff;
      if not (array_mem mu affected) then begin
        tot.n_heap <- tot.n_heap + 1;
        Indexed_heap.update heap mu (draw_time t_mu a.(mu))
      end;
      Array.iter
        (fun j ->
          let aj_old = a.(j) in
          let aj_new = Compiled.propensity c state j in
          a.(j) <- aj_new;
          if j = mu then Indexed_heap.update heap j (draw_time t_mu aj_new)
          else begin
            let tj = Indexed_heap.key heap j in
            let tj' =
              if aj_new <= 0. then infinity
              else if aj_old <= 0. || tj = infinity then
                draw_time t_mu aj_new
              else t_mu +. (aj_old /. aj_new *. (tj -. t_mu))
            in
            Indexed_heap.update heap j tj'
          end)
        affected;
      loop events
    end
  in
  loop events;
  (!fired, !applied)

(* Explicit tau-leaping. The leap length follows Cao, Gillespie & Petzold
   (2006): bound the expected relative change of every species by
   [epsilon], estimating the drift and diffusion of each species from the
   current propensities. Leaps shorter than a few expected SSA steps are
   not worth their bias, so the loop falls back to exact direct-method
   steps there. A leap whose Poisson counts would drive any species
   negative is rejected — tau is halved and the counts redrawn (the
   step-rejection remedy of Cao, Gillespie & Petzold 2005). The previous
   behaviour, clamping negatives to zero after committing the leap, was
   a real correctness bug: the products of the overshooting channel were
   credited in full while the reactants gave up fewer molecules than
   were consumed, creating mass out of nothing and corrupting every
   propensity evaluated downstream. *)
let run_tau_leap rng (c : Compiled.t) cfg ~epsilon state events recorder
    tot =
  if epsilon <= 0. || epsilon >= 1. then
    invalid_arg "Sim: tau-leaping epsilon must be in (0, 1)";
  let fired = ref 0 and applied = ref 0 in
  let observe t =
    tot.n_obs <- tot.n_obs + 1;
    Trace.Recorder.observe recorder t state
  in
  let n_species = Array.length c.c_names in
  let n_reactions = Array.length c.c_reactions in
  let mu = Array.make n_species 0. in
  let sigma2 = Array.make n_species 0. in
  let choose_tau a =
    Array.fill mu 0 n_species 0.;
    Array.fill sigma2 0 n_species 0.;
    for j = 0 to n_reactions - 1 do
      List.iter
        (fun (i, d) ->
          mu.(i) <- mu.(i) +. (d *. a.(j));
          sigma2.(i) <- sigma2.(i) +. (d *. d *. a.(j)))
        c.c_reactions.(j).c_deltas
    done;
    let tau = ref infinity in
    for i = 0 to n_species - 1 do
      if not c.c_boundary.(i) then begin
        (* g_i = 2 is a conservative bound for at-most-second-order
           kinetics *)
        let bound = Float.max (epsilon *. state.(i) /. 2.) 1. in
        if mu.(i) <> 0. then tau := Float.min !tau (bound /. Float.abs mu.(i));
        if sigma2.(i) > 0. then
          tau := Float.min !tau (bound *. bound /. sigma2.(i))
      end
    done;
    !tau
  in
  observe cfg.t0;
  let a = Array.make n_reactions 0. in
  let refresh_all () =
    Compiled.propensities_into c state a;
    tot.n_evals <- tot.n_evals + n_reactions
  in
  (* The cache [a] is kept authoritative across iterations, so only the
     exact-fallback branch can update it sparsely: a leap fires many
     reactions at once, and events clamp arbitrary species, so both are
     followed by a full refresh. *)
  refresh_all ();
  (* One attempted leap of length [tau]: draw every channel's Poisson
     count into [dstate] first, commit only if no species would go
     negative. Committing returns true; the caller halves tau and
     redraws on false. *)
  let dstate = Array.make n_species 0. in
  let try_leap tau =
    Array.fill dstate 0 n_species 0.;
    let k_tot = ref 0 in
    for j = 0 to n_reactions - 1 do
      if a.(j) > 0. then begin
        let k = Rng.poisson rng ~mean:(a.(j) *. tau) in
        if k > 0 then begin
          k_tot := !k_tot + k;
          List.iter
            (fun (i, d) -> dstate.(i) <- dstate.(i) +. (d *. float_of_int k))
            c.c_reactions.(j).c_deltas
        end
      end
    done;
    let ok = ref true in
    for i = 0 to n_species - 1 do
      if state.(i) +. dstate.(i) < 0. then ok := false
    done;
    if !ok then begin
      for i = 0 to n_species - 1 do
        state.(i) <- state.(i) +. dstate.(i)
      done;
      fired := !fired + !k_tot
    end;
    !ok
  in
  (* Halving caps out after 32 rejections (a factor of 4e9 — by then the
     leap means are far below one count and still overdrawing, which a
     real model cannot sustain); the caller then takes one exact step. *)
  let max_rejections = 32 in
  let rec leap tau rejections =
    if try_leap tau then Some tau
    else begin
      tot.n_rej <- tot.n_rej + 1;
      if rejections < max_rejections then leap (tau /. 2.) (rejections + 1)
      else None
    end
  in
  let rec loop t events =
    if t < cfg.t_end then begin
      let a0 = sum a in
      let t_ev = Events.next_time events in
      if a0 <= 0. then begin
        if t_ev <= cfg.t_end then begin
          match apply_events_at c state events with
          | Some (te, m, rest) ->
              applied := !applied + m;
              observe te;
              refresh_all ();
              loop te rest
          | None -> ()
        end
      end
      else begin
        let tau_sel = choose_tau a in
        if tau_sel < 10. /. a0 then exact_step t events a0 t_ev
        else begin
          let t_stop = Float.min cfg.t_end t_ev in
          match leap (Float.min tau_sel (t_stop -. t)) 0 with
          | None ->
              (* pathological: even a vanishing leap overdraws — resolve
                 the contention one exact firing at a time *)
              exact_step t events a0 t_ev
          | Some tau ->
              let t' = t +. tau in
              if t' >= t_ev && t_ev <= cfg.t_end then begin
                match apply_events_at c state events with
                | Some (te, m, rest) ->
                    applied := !applied + m;
                    observe te;
                    refresh_all ();
                    loop te rest
                | None -> assert false
              end
              else begin
                observe t';
                refresh_all ();
                loop t' events
              end
        end
      end
    end
  and exact_step t events a0 t_ev =
    (* exact fallback: one direct-method step, updated sparsely *)
    let tau = Rng.exponential rng ~rate:a0 in
    let t' = t +. tau in
    if t' >= t_ev && t_ev <= cfg.t_end then begin
      match apply_events_at c state events with
      | Some (te, m, rest) ->
          applied := !applied + m;
          observe te;
          refresh_all ();
          loop te rest
      | None -> assert false
    end
    else if t' < cfg.t_end then begin
      let mu_r = select a (Rng.float rng *. a0) in
      fire c state mu_r;
      incr fired;
      tot.n_evals <-
        tot.n_evals + Compiled.refresh_affected c state mu_r a;
      observe t';
      loop t' events
    end
  in
  loop cfg.t0 events;
  (!fired, !applied)

module Metrics = Glc_obs.Metrics

let algorithm_label = function
  | Direct -> "direct"
  | Direct_full_recompute -> "direct_full"
  | Next_reaction -> "next_reaction"
  | Tau_leaping _ -> "tau_leaping"

(* One registry interaction per run: the loops above count into [tot];
   this flushes the totals after the fact. *)
let flush_metrics metrics cfg ~fired ~applied ~samples tot ~t_start =
  let algo = algorithm_label cfg.algorithm in
  let c name = Metrics.counter metrics name in
  Metrics.Counter.incr (c ("ssa.runs." ^ algo));
  Metrics.Counter.add (c "ssa.reactions_fired") fired;
  Metrics.Counter.add (c "ssa.events_applied") applied;
  Metrics.Counter.add (c "ssa.propensity_evals") tot.n_evals;
  Metrics.Counter.add (c "ssa.heap_updates") tot.n_heap;
  Metrics.Counter.add (c "ssa.recorder_observes") tot.n_obs;
  Metrics.Counter.add (c "ssa.tau_leap_rejections") tot.n_rej;
  Metrics.Counter.add (c "ssa.trace_samples") samples;
  Metrics.observe_since metrics ("ssa.run_seconds." ^ algo) t_start

let run_compiled_rng ?(events = Events.empty) ?(metrics = Metrics.noop) ~rng
    cfg (c : Compiled.t) =
  let live = Metrics.enabled metrics in
  let t_start = if live then Glc_obs.Clock.now () else 0. in
  let recorder =
    Trace.Recorder.create ~names:c.c_names ~initial:c.c_initial ~t0:cfg.t0
      ~t_end:cfg.t_end ~dt:cfg.dt
  in
  let tot = make_tot () in
  let state = Array.copy c.c_initial in
  (* Interventions scheduled at or before t0 initialise the state. *)
  let caught_up, events = catch_up c state ~t0:cfg.t0 events in
  let fired, applied =
    match cfg.algorithm with
    | Direct -> run_direct ~sparse:true rng c cfg state events recorder tot
    | Direct_full_recompute ->
        run_direct ~sparse:false rng c cfg state events recorder tot
    | Next_reaction -> run_next_reaction rng c cfg state events recorder tot
    | Tau_leaping { epsilon } ->
        run_tau_leap rng c cfg ~epsilon state events recorder tot
  in
  let applied = caught_up + applied in
  let trace = Trace.Recorder.finish recorder in
  if live then
    flush_metrics metrics cfg ~fired ~applied ~samples:(Trace.length trace)
      tot ~t_start;
  let final_state =
    Array.to_list (Array.mapi (fun i id -> (id, state.(i))) c.c_names)
  in
  (trace, { reactions_fired = fired; events_applied = applied; final_state })

let run_compiled ?events ?metrics cfg c =
  run_compiled_rng ?events ?metrics ~rng:(Rng.create cfg.seed) cfg c

let run_with_stats ?events ?metrics cfg model =
  run_compiled ?events ?metrics cfg (Compiled.compile ?metrics model)

let run ?events ?metrics cfg model =
  fst (run_with_stats ?events ?metrics cfg model)
