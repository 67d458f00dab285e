module Model = Glc_model.Model
module Math = Glc_model.Math
module Metrics = Glc_obs.Metrics

type path = Ast | Ir

type reaction = {
  c_id : string;
  c_deltas : (int * float) list;
  c_propensity : float array -> float;
  c_expr : Ir.expr option;
  c_reads : int list;
  c_cost : int;
}

type ir_stats = {
  ir_instrs : int;
  ir_regs : int;
  ir_const_folds : int;
}

type t = {
  c_model : Model.t;
  c_names : string array;
  c_initial : float array;
  c_boundary : bool array;
  c_reactions : reaction array;
  c_dependents : int list array;
  c_affected : int array array;
  c_path : path;
  c_regs : int;
  c_eval_cost : int;
  c_affected_cost : int array;
  c_ir : ir_stats option;
}

exception
  Non_finite_propensity of {
    nf_model : string;
    nf_reaction : string;
    nf_value : float;
    nf_state : (string * float) list;
  }

let () =
  Printexc.register_printer (function
    | Non_finite_propensity { nf_model; nf_reaction; nf_value; nf_state } ->
        Some
          (Printf.sprintf
             "Non_finite_propensity: model %S, reaction %S evaluated to %g \
              in state [%s]"
             nf_model nf_reaction nf_value
             (String.concat "; "
                (List.map
                   (fun (id, v) -> Printf.sprintf "%s=%g" id v)
                   nf_state)))
    | _ -> None)

(* Cold path, deliberately out of line. *)
let non_finite t j p state =
  raise
    (Non_finite_propensity
       {
         nf_model = t.c_model.Model.m_id;
         nf_reaction = t.c_reactions.(j).c_id;
         nf_value = p;
         nf_state =
           Array.to_list (Array.mapi (fun i id -> (id, state.(i))) t.c_names);
       })

(* Every propensity that enters a simulator's cache goes through here:
   finite negatives clamp to zero (a kinetic law may dip below zero
   transiently in ill-parameterised models), but NaN and infinity raise.
   The previous [Float.max 0.] clamp returned NaN for a NaN law value
   (e.g. 0/0 at an empty state, or ln of a negative concentration),
   which flowed silently into [a0], made every comparison false and
   ended the run as if time had run out — a corrupted trace with no
   diagnostic. *)
let[@inline] clamp_checked t j p state =
  if Float.is_finite p then if p > 0. then p else 0.
  else non_finite t j p state

(* Per-domain scratch register file for IR evaluation, grown on demand
   and shared by every compiled model in the domain. Compiled models
   are shared across the pool's domains (the engine's compile cache
   hands one [t] to all workers), so the scratch must be domain-local
   rather than live in [t]; the hot entry points fetch it once per call
   and evaluate every law in the batch against it, so the
   [Domain.DLS.get] is paid per refresh, not per evaluation, and a
   single key keeps the DLS footprint bounded. Evaluations never nest
   within a domain — [Ir.exec] runs to completion with no callbacks —
   so reuse is safe. *)
let scratch_key : float array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let scratch n =
  let r = Domain.DLS.get scratch_key in
  if Array.length !r < n then r := Array.make n 0.;
  !r

(* Parameters are substituted by their constant values first, so only
   species remain — which is also what lets the IR path constant-fold
   parameter arithmetic like [k^n] away. *)
let substitute (m : Model.t) index (rate : Math.t) =
  let rate =
    Math.subst
      (fun id ->
        match Model.parameter_value m id with
        | Some v -> Some (Math.Const v)
        | None -> None)
      rate
  in
  let reads =
    List.filter_map (fun id -> Hashtbl.find_opt index id) (Math.idents rate)
    |> List.sort_uniq Int.compare
  in
  (rate, reads)

(* The reference evaluator: a tree of closures mirroring the AST. *)
let build_ast index (rate : Math.t) =
  let rec build : Math.t -> float array -> float = function
    | Const c -> fun _ -> c
    | Ident id -> (
        match Hashtbl.find_opt index id with
        | Some i -> fun state -> state.(i)
        | None -> assert false (* validate rejects unknown identifiers *))
    | Neg a ->
        let fa = build a in
        fun s -> -.fa s
    | Add (a, b) ->
        let fa = build a and fb = build b in
        fun s -> fa s +. fb s
    | Sub (a, b) ->
        let fa = build a and fb = build b in
        fun s -> fa s -. fb s
    | Mul (a, b) ->
        let fa = build a and fb = build b in
        fun s -> fa s *. fb s
    | Div (a, b) ->
        let fa = build a and fb = build b in
        fun s -> fa s /. fb s
    | Pow (a, b) ->
        let fa = build a and fb = build b in
        fun s -> Float.pow (fa s) (fb s)
    | Min (a, b) ->
        let fa = build a and fb = build b in
        fun s -> Float.min (fa s) (fb s)
    | Max (a, b) ->
        let fa = build a and fb = build b in
        fun s -> Float.max (fa s) (fb s)
    | Exp a ->
        let fa = build a in
        fun s -> Float.exp (fa s)
    | Ln a ->
        let fa = build a in
        fun s -> Float.log (fa s)
  in
  build rate

let compile ?(path = Ir) ?(metrics = Metrics.noop) (m : Model.t) =
  (match Model.validate m with
  | [] -> ()
  | errs ->
      invalid_arg
        (Printf.sprintf "Compiled.compile: %s" (String.concat "; " errs)));
  let live = Metrics.enabled metrics in
  let t_start = if live then Glc_obs.Clock.now () else 0. in
  let species = Array.of_list m.m_species in
  let names = Array.map (fun (s : Model.species) -> s.s_id) species in
  let boundary =
    Array.map (fun (s : Model.species) -> s.s_boundary) species
  in
  let index = Hashtbl.create 32 in
  Array.iteri (fun i id -> Hashtbl.replace index id i) names;
  let resolve id = Hashtbl.find_opt index id in
  let n_instrs = ref 0 and n_regs = ref 0 and n_folds = ref 0 in
  let reactions =
    Array.of_list
      (List.map
         (fun (r : Model.reaction) ->
           let deltas = Hashtbl.create 8 in
           let add sign (id, st) =
             let i = Hashtbl.find index id in
             let d = Option.value ~default:0. (Hashtbl.find_opt deltas i) in
             Hashtbl.replace deltas i (d +. (sign *. float_of_int st))
           in
           List.iter (add (-1.)) r.r_reactants;
           List.iter (add 1.) r.r_products;
           (* SBML boundaryCondition semantics: a boundary species may
              participate in a reaction (its amount still scales the
              kinetic law) but is never changed by firings, so its
              deltas are dropped here — the single place every
              simulation algorithm applies state changes from. *)
           let c_deltas =
             Hashtbl.fold (fun i d acc -> (i, d) :: acc) deltas []
             |> List.filter (fun (i, d) -> d <> 0. && not boundary.(i))
             |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
           in
           let rate, c_reads = substitute m index r.r_rate in
           let c_propensity, c_expr, c_cost =
             match path with
             | Ast -> (build_ast index rate, None, 0)
             | Ir ->
                 let e, st = Ir.compile ~resolve rate in
                 n_instrs := !n_instrs + st.Ir.s_instrs;
                 n_regs := max !n_regs e.Ir.e_prog.Ir.p_regs;
                 n_folds := !n_folds + st.Ir.s_const_folds;
                 let regs_needed = e.Ir.e_prog.Ir.p_regs in
                 ( (fun state -> Ir.eval e ~regs:(scratch regs_needed) state),
                   Some e,
                   st.Ir.s_instrs )
           in
           { c_id = r.r_id; c_deltas; c_propensity; c_expr; c_reads; c_cost })
         m.m_reactions)
  in
  let dependents = Array.make (Array.length species) [] in
  Array.iteri
    (fun ri r ->
      List.iter (fun s -> dependents.(s) <- ri :: dependents.(s)) r.c_reads)
    reactions;
  Array.iteri (fun s l -> dependents.(s) <- List.rev l) dependents;
  let affected =
    Array.map
      (fun r ->
        List.concat_map (fun (s, _) -> dependents.(s)) r.c_deltas
        |> List.sort_uniq Int.compare |> Array.of_list)
      reactions
  in
  let affected_cost =
    Array.map
      (fun aff ->
        Array.fold_left (fun acc j -> acc + reactions.(j).c_cost) 0 aff)
      affected
  in
  let ir =
    match path with
    | Ast -> None
    | Ir ->
        Some
          {
            ir_instrs = !n_instrs;
            ir_regs = !n_regs;
            ir_const_folds = !n_folds;
          }
  in
  if live && path <> Ast then begin
    let c name = Metrics.counter metrics name in
    Metrics.Counter.add (c "ssa.ir.programs") (Array.length reactions);
    Metrics.Counter.add (c "ssa.ir.instructions_compiled") !n_instrs;
    Metrics.Counter.add (c "ssa.ir.const_folds") !n_folds;
    Metrics.observe_since metrics "ssa.ir.compile_seconds" t_start
  end;
  {
    c_model = m;
    c_names = names;
    c_initial = Array.map (fun (s : Model.species) -> s.s_initial) species;
    c_boundary = boundary;
    c_reactions = reactions;
    c_dependents = dependents;
    c_affected = affected;
    c_path = path;
    c_regs = !n_regs;
    c_eval_cost = Array.fold_left (fun acc r -> acc + r.c_cost) 0 reactions;
    c_affected_cost = affected_cost;
    c_ir = ir;
  }

let species_index t id =
  let n = Array.length t.c_names in
  let rec find i =
    if i >= n then raise Not_found
    else if String.equal t.c_names.(i) id then i
    else find (i + 1)
  in
  find 0

(* Raw law evaluation for the hot entry points: IR programs run
   directly against the caller-fetched scratch, skipping the
   [c_propensity] closure (which re-fetches the DLS scratch on every
   call and exists for external field users). *)
let[@inline] raw_eval t regs j state =
  let r = t.c_reactions.(j) in
  match r.c_expr with
  | Some e -> Ir.eval e ~regs state
  | None -> r.c_propensity state

let make_regs t = Array.make t.c_regs 0.

let propensity_in t ~regs state j =
  clamp_checked t j (raw_eval t regs j state) state

let propensity t state j = propensity_in t ~regs:(scratch t.c_regs) state j

let propensities t state =
  let regs = scratch t.c_regs in
  Array.mapi
    (fun j (_ : reaction) -> clamp_checked t j (raw_eval t regs j state) state)
    t.c_reactions

let propensities_into_in t ~regs state a =
  if Array.length a <> Array.length t.c_reactions then
    invalid_arg "Compiled.propensities_into: wrong buffer length";
  for i = 0 to Array.length a - 1 do
    a.(i) <- clamp_checked t i (raw_eval t regs i state) state
  done

let propensities_into t state a =
  propensities_into_in t ~regs:(scratch t.c_regs) state a

let inert_reactions t =
  Array.to_list t.c_reactions
  |> List.filter_map (fun r ->
         if r.c_deltas = [] then Some r.c_id else None)

let affected_reactions t ri = t.c_affected.(ri)

let refresh_affected_in t ~regs state ri a =
  let aff = t.c_affected.(ri) in
  for k = 0 to Array.length aff - 1 do
    let j = aff.(k) in
    a.(j) <- clamp_checked t j (raw_eval t regs j state) state
  done;
  Array.length aff

let refresh_affected t state ri a =
  refresh_affected_in t ~regs:(scratch t.c_regs) state ri a

let eval_cost t = t.c_eval_cost
let affected_cost t ri = t.c_affected_cost.(ri)
let ir_stats t = t.c_ir
