module Model = Glc_model.Model
module Math = Glc_model.Math
module Metrics = Glc_obs.Metrics

type path = Ast | Shape

type law =
  | Const of float
  | Mass_action of { k : float; x : int }
  | Repressor of {
      y0 : float;
      b : float;
      ka : float;
      kb : float;
      n : float;
      x : int;
    }
  | Activator of { y0 : float; b : float; ka : float; n : float; x : int }
  | Repressor2 of {
      y0 : float;
      b : float;
      ka1 : float;
      kb1 : float;
      n1 : float;
      x1 : int;
      ka2 : float;
      kb2 : float;
      n2 : float;
      x2 : int;
    }
  | Generic of (float array -> float)

type reaction = {
  c_id : string;
  c_deltas : (int * float) list;
  c_law : law;
  c_reads : int list;
}

type t = {
  c_model : Model.t;
  c_names : string array;
  c_initial : float array;
  c_boundary : bool array;
  c_reactions : reaction array;
  c_dependents : int list array;
  c_affected : int array array;
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

(* Parameters are substituted by their constant values first, so only
   species remain — which is also what lets [fold] turn parameter
   arithmetic like [k^n] into constants before shape matching. *)
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

(* Folds every closed subterm to one constant, bottom up. [Math.eval]
   of an operation over constants performs exactly the IEEE operation
   the evaluator would at run time — never an algebraic identity — so
   folding changes no bit: [0 * x] survives, NaN and signed zeros
   propagate. *)
let rec fold (e : Math.t) : Math.t =
  let node : Math.t =
    match e with
    | Const _ | Ident _ -> e
    | Neg a -> Neg (fold a)
    | Exp a -> Exp (fold a)
    | Ln a -> Ln (fold a)
    | Add (a, b) -> Add (fold a, fold b)
    | Sub (a, b) -> Sub (fold a, fold b)
    | Mul (a, b) -> Mul (fold a, fold b)
    | Div (a, b) -> Div (fold a, fold b)
    | Pow (a, b) -> Pow (fold a, fold b)
    | Min (a, b) -> Min (fold a, fold b)
    | Max (a, b) -> Max (fold a, fold b)
  in
  match node with
  | Neg (Const _)
  | Exp (Const _)
  | Ln (Const _)
  | Add (Const _, Const _)
  | Sub (Const _, Const _)
  | Mul (Const _, Const _)
  | Div (Const _, Const _)
  | Pow (Const _, Const _)
  | Min (Const _, Const _)
  | Max (Const _, Const _) ->
      Const (Math.eval ~lookup:(fun _ -> assert false) node)
  | _ -> node

let same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y

(* The law shapes every imported gate reduces to once parameters fold:
   a Hill production law ([To_model]'s [ymin + (ymax-ymin) * product]
   over one or two regulator factors) or a first-order degradation. The
   activator factor reads its regulator twice, so it only matches when
   both reads name the same species with the same exponent. Anything
   else evaluates through the closure tree of the folded law. *)
let shape index rate =
  let idx x = Hashtbl.find index x in
  match fold rate with
  | Math.Const c -> Const c
  | Mul (Const k, Ident x) -> Mass_action { k; x = idx x }
  | Add
      ( Const y0,
        Mul (Const b, Div (Const ka, Add (Const kb, Pow (Ident x, Const n))))
      ) ->
      Repressor { y0; b; ka; kb; n; x = idx x }
  | Add
      ( Const y0,
        Mul
          ( Const b,
            Div
              ( Pow (Ident x, Const n),
                Add (Const ka, Pow (Ident x', Const n')) ) ) )
    when String.equal x x' && same_bits n n' ->
      Activator { y0; b; ka; n; x = idx x }
  | Add
      ( Const y0,
        Mul
          ( Const b,
            Mul
              ( Div (Const ka1, Add (Const kb1, Pow (Ident x1, Const n1))),
                Div (Const ka2, Add (Const kb2, Pow (Ident x2, Const n2))) ) ) )
    ->
      Repressor2
        { y0; b; ka1; kb1; n1; x1 = idx x1; ka2; kb2; n2; x2 = idx x2 }
  | folded -> Generic (build_ast index folded)

(* Each shape arm performs the exact operation sequence [Math.eval]
   performs on the law it matched (the activator computes [x^n] once
   where the tree computes it twice — same bits), so the two paths
   produce bit-identical propensities. *)
let[@inline] eval_law law state =
  match law with
  | Const c -> c
  | Mass_action { k; x } -> k *. state.(x)
  | Repressor { y0; b; ka; kb; n; x } ->
      y0 +. (b *. (ka /. (kb +. Float.pow state.(x) n)))
  | Activator { y0; b; ka; n; x } ->
      let xn = Float.pow state.(x) n in
      y0 +. (b *. (xn /. (ka +. xn)))
  | Repressor2 { y0; b; ka1; kb1; n1; x1; ka2; kb2; n2; x2 } ->
      let f1 = ka1 /. (kb1 +. Float.pow state.(x1) n1) in
      let f2 = ka2 /. (kb2 +. Float.pow state.(x2) n2) in
      y0 +. (b *. (f1 *. f2))
  | Generic f -> f state

let compile ?(path = Shape) ?(metrics = Metrics.noop) (m : Model.t) =
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
           let c_law =
             match path with
             | Ast -> Generic (build_ast index rate)
             | Shape -> shape index rate
           in
           { c_id = r.r_id; c_deltas; c_law; c_reads })
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
  if live then begin
    let generic =
      Array.fold_left
        (fun n r -> match r.c_law with Generic _ -> n + 1 | _ -> n)
        0 reactions
    in
    Metrics.Counter.add (Metrics.counter metrics "ssa.laws.generic") generic;
    Metrics.observe_since metrics "ssa.compile_seconds" t_start
  end;
  {
    c_model = m;
    c_names = names;
    c_initial = Array.map (fun (s : Model.species) -> s.s_initial) species;
    c_boundary = boundary;
    c_reactions = reactions;
    c_dependents = dependents;
    c_affected = affected;
  }

let species_index t id =
  let n = Array.length t.c_names in
  let rec find i =
    if i >= n then raise Not_found
    else if String.equal t.c_names.(i) id then i
    else find (i + 1)
  in
  find 0

(* Cold path, deliberately out of line. The law is pure, so evaluating
   it again here reproduces the offending value exactly; taking it as an
   argument instead would make [checked]'s value escape into a call,
   and without flambda that boxes it on every evaluation. *)
let[@inline never] non_finite t j state =
  raise
    (Non_finite_propensity
       {
         nf_model = t.c_model.Model.m_id;
         nf_reaction = t.c_reactions.(j).c_id;
         nf_value = eval_law t.c_reactions.(j).c_law state;
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
   diagnostic. [p] never leaves this function, so it stays unboxed. *)
let[@inline] checked t j state =
  let p = eval_law t.c_reactions.(j).c_law state in
  if Float.is_finite p then if p > 0. then p else 0. else non_finite t j state

let propensity t state j = checked t j state

let propensities_into t state a =
  if Array.length a <> Array.length t.c_reactions then
    invalid_arg "Compiled.propensities_into: wrong buffer length";
  for j = 0 to Array.length a - 1 do
    a.(j) <- checked t j state
  done

let propensities t state =
  let a = Array.make (Array.length t.c_reactions) 0. in
  propensities_into t state a;
  a

let inert_reactions t =
  Array.to_list t.c_reactions
  |> List.filter_map (fun r ->
         if r.c_deltas = [] then Some r.c_id else None)

let affected_reactions t ri = t.c_affected.(ri)

let refresh_affected t state ri a =
  let aff = t.c_affected.(ri) in
  for k = 0 to Array.length aff - 1 do
    let j = aff.(k) in
    a.(j) <- checked t j state
  done;
  Array.length aff
