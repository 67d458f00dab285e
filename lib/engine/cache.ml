module Model = Glc_model.Model
module Math = Glc_model.Math
module Compiled = Glc_ssa.Compiled

(* FNV-1a, 64 bit. Deterministic across runs and architectures, unlike
   [Hashtbl.hash], which is depth-limited and would fold deep kinetic
   laws of different constants onto the same digest. *)
let fnv64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let fingerprint (m : Model.t) =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  (* %h is exact (hex float): two models differing in any constant — a
     perturbed promoter strength, a different input-high level — differ
     here even when a rounded decimal rendering would not. *)
  let addf x = add (Printf.sprintf "%h;" x) in
  let rec add_math = function
    | Math.Const c -> add "C"; addf c
    | Math.Ident id -> add "I"; add id; add ";"
    | Math.Neg a -> add "N("; add_math a; add ")"
    | Math.Add (a, b) -> add "+("; add_math a; add_math b; add ")"
    | Math.Sub (a, b) -> add "-("; add_math a; add_math b; add ")"
    | Math.Mul (a, b) -> add "*("; add_math a; add_math b; add ")"
    | Math.Div (a, b) -> add "/("; add_math a; add_math b; add ")"
    | Math.Pow (a, b) -> add "^("; add_math a; add_math b; add ")"
    | Math.Min (a, b) -> add "m("; add_math a; add_math b; add ")"
    | Math.Max (a, b) -> add "M("; add_math a; add_math b; add ")"
    | Math.Exp a -> add "e("; add_math a; add ")"
    | Math.Ln a -> add "l("; add_math a; add ")"
  in
  add m.Model.m_id;
  add "|";
  List.iter
    (fun (s : Model.species) ->
      add "s:"; add s.Model.s_id; add ";"; addf s.Model.s_initial;
      add (if s.Model.s_boundary then "b;" else ";"))
    m.Model.m_species;
  List.iter
    (fun (p : Model.parameter) ->
      add "p:"; add p.Model.p_id; add ";"; addf p.Model.p_value)
    m.Model.m_parameters;
  List.iter
    (fun (r : Model.reaction) ->
      add "r:"; add r.Model.r_id; add ";";
      List.iter
        (fun (id, k) -> add id; add (Printf.sprintf "<%d;" k))
        r.Model.r_reactants;
      List.iter
        (fun (id, k) -> add id; add (Printf.sprintf ">%d;" k))
        r.Model.r_products;
      List.iter (fun id -> add "~"; add id; add ";") r.Model.r_modifiers;
      add_math r.Model.r_rate)
    m.Model.m_reactions;
  Printf.sprintf "%016Lx" (fnv64 (Buffer.contents buf))

let model_key ~name m = name ^ "#" ^ fingerprint m

module Metrics = Glc_obs.Metrics

type t = {
  mutex : Mutex.t;
  table : (string, Compiled.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  metrics : Metrics.t; (* forwarded to Compiled.compile for ssa.laws.* *)
  obs_hits : Metrics.Counter.t;
  obs_misses : Metrics.Counter.t;
}

let create ?(metrics = Metrics.noop) () =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    metrics;
    obs_hits = Metrics.counter metrics "engine.cache_hits";
    obs_misses = Metrics.counter metrics "engine.cache_misses";
  }

let compiled t ~key build =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some c ->
          t.hits <- t.hits + 1;
          Metrics.Counter.incr t.obs_hits;
          c
      | None ->
          t.misses <- t.misses + 1;
          Metrics.Counter.incr t.obs_misses;
          let c = Compiled.compile ~metrics:t.metrics (build ()) in
          Hashtbl.add t.table key c;
          c)

let hits t = t.hits
let misses t = t.misses

let clear t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0;
  Mutex.unlock t.mutex
