module Netlist = Glc_logic.Netlist
module Truth_table = Glc_logic.Truth_table
module Assembly = Glc_gates.Assembly
module Repressor = Glc_gates.Repressor
module Cello = Glc_gates.Cello
module Certificate = Glc_symbolic.Certificate
module Store = Glc_campaign.Store
module Metrics = Glc_obs.Metrics
module Rng = Glc_ssa.Rng
module Json = Glc_json

type config = {
  v_target : int;
  v_arity : int;
  v_seed : int;
  v_pop : int;
  v_genes : int;
  v_elite : int;
  v_max_gens : int;
}

let default_config ~arity ~target =
  {
    v_target = target;
    v_arity = arity;
    v_seed = 42;
    v_pop = 64;
    v_genes = 48;
    v_elite = 4;
    v_max_gens = 2000;
  }

(* gene i: (op, a, b) with op 0 = NOT a, 1 = NOR a b; operand indexes
   address inputs (0..arity-1) then earlier genes (arity + j, j < i) —
   topological by construction *)
type genome = { genes : (int * int * int) array; out : int }

let mutation_rate = 0.03

(* fresh random genomes injected each generation, replacing the worst
   children — keeps diversity up so the search escapes the one-row-off
   plateaus where elitist GAs stall *)
let immigrants = 8

let encode g =
  let genes =
    Array.to_list g.genes
    |> List.map (fun (op, a, b) -> Printf.sprintf "%d:%d:%d" op a b)
    |> String.concat ","
  in
  Printf.sprintf "%s|%d" genes g.out

let decode_genome s =
  match String.index_opt s '|' with
  | None -> None
  | Some bar -> (
      let out = int_of_string_opt (String.sub s (bar + 1) (String.length s - bar - 1)) in
      let genes =
        String.sub s 0 bar |> String.split_on_char ','
        |> List.map (fun gene ->
               match String.split_on_char ':' gene with
               | [ op; a; b ] -> (
                   match
                     (int_of_string_opt op, int_of_string_opt a, int_of_string_opt b)
                   with
                   | Some op, Some a, Some b -> Some (op, a, b)
                   | _ -> None)
               | _ -> None)
      in
      match (out, List.for_all Option.is_some genes) with
      | Some out, true ->
          Some { genes = Array.of_list (List.map Option.get genes); out }
      | _ -> None)

let reversed_sensors arity =
  let s = Assembly.sensors arity in
  Array.init arity (fun i -> s.(arity - 1 - i))

let netlist_of cfg g =
  let arity = cfg.v_arity in
  let inputs = reversed_sensors arity in
  let net idx = if idx < arity then inputs.(idx) else Printf.sprintf "g%d" (idx - arity) in
  (* phenotype = genes reachable from the output pointer *)
  let active = Array.make (Array.length g.genes) false in
  let rec mark idx =
    if idx >= arity then begin
      let i = idx - arity in
      if not active.(i) then begin
        active.(i) <- true;
        let op, a, b = g.genes.(i) in
        mark a;
        if op = 1 then mark b
      end
    end
  in
  mark g.out;
  let gates = ref [] in
  Array.iteri
    (fun i (op, a, b) ->
      if active.(i) then
        let gate =
          if op = 0 then Netlist.Not (net a) else Netlist.Nor (net a, net b)
        in
        gates := (net (arity + i), gate) :: !gates)
    g.genes;
  Netlist.make ~inputs ~output:(net g.out) ~gates:(List.rev !gates)

let fitness cfg g =
  let nl = netlist_of cfg g in
  let tt = Netlist.to_truth_table nl in
  let target = Truth_table.of_code ~arity:cfg.v_arity cfg.v_target in
  let rows = 1 lsl cfg.v_arity in
  let matches = rows - Truth_table.hamming_distance tt target in
  let pfobe = 100. *. float_of_int matches /. float_of_int rows in
  let gates = Netlist.gate_count nl in
  (* function first, cost second: the inverse-gate-cost term stays
     under 1 while one truth-table row is worth 100/2^arity >= 6.25,
     so the GA never trades correctness for size — a plain
     pfobe/(1+gates) ratio traps the search at 0-gate projections *)
  (pfobe +. (1. /. (1. +. float_of_int gates)), pfobe, gates)

(* {2 Generations} *)

(* fresh RNG per generation from (seed, generation): resume re-derives
   the exact stream without replaying earlier generations *)
let gen_rng cfg g =
  Rng.create (((cfg.v_seed * 1_000_003) + (g * 7919)) land max_int)

let random_genome cfg rng =
  let genes =
    Array.init cfg.v_genes (fun i ->
        let slots = cfg.v_arity + i in
        (Rng.int rng 2, Rng.int rng slots, Rng.int rng slots))
  in
  { genes; out = Rng.int rng (cfg.v_arity + cfg.v_genes) }

let initial_population cfg =
  let rng = gen_rng cfg 0 in
  List.init cfg.v_pop (fun _ -> random_genome cfg rng)

(* fitness-descending, ties broken by list position (stable sort) — a
   deterministic order given the stored population order, and the
   neutral-drift mechanism: {!step} places fresh mutants of the best
   genome at the head of the next population, so on equal fitness the
   newest genotype wins and the search drifts across neutral networks
   instead of freezing on the incumbent (Miller & Thomson's CGP
   observation; without drift the GA stalls one row short) *)
let rank cfg pop =
  List.map (fun g -> (fitness cfg g, encode g, g)) pop
  |> List.stable_sort (fun ((f1, _, _), _, _) ((f2, _, _), _, _) ->
         compare f2 f1)

let tournament rng ranked =
  (* binary tournament over the rank-sorted population: mild pressure,
     enough diversity to keep crossover productive *)
  let n = Array.length ranked in
  let a = Rng.int rng n and b = Rng.int rng n in
  let _, _, g = ranked.(min a b) in
  g

let crossover rng p1 p2 =
  let n = Array.length p1.genes in
  let cut = Rng.int rng (n + 1) in
  let genes = Array.init n (fun i -> if i < cut then p1.genes.(i) else p2.genes.(i)) in
  let out = if Rng.int rng 2 = 0 then p1.out else p2.out in
  { genes; out }

let mutate cfg rng g =
  let genes =
    Array.mapi
      (fun i (op, a, b) ->
        let slots = cfg.v_arity + i in
        let op = if Rng.float rng < mutation_rate then Rng.int rng 2 else op in
        let a = if Rng.float rng < mutation_rate then Rng.int rng slots else a in
        let b = if Rng.float rng < mutation_rate then Rng.int rng slots else b in
        (op, a, b))
      g.genes
  in
  let out =
    if Rng.float rng < mutation_rate then Rng.int rng (cfg.v_arity + cfg.v_genes)
    else g.out
  in
  { genes; out }

let step cfg gen prev =
  let rng = gen_rng cfg gen in
  let ranked = Array.of_list (rank cfg prev) in
  let _, _, best = ranked.(0) in
  let elite =
    List.init (min cfg.v_elite cfg.v_pop) (fun i ->
        let _, _, g = ranked.(i) in
        g)
  in
  let n_elite = List.length elite in
  let budget = cfg.v_pop - n_elite in
  (* half the offspring are (1+λ)-style mutants of the best genome:
     placed at the head of the population so {!rank}'s stable tie-break
     lets an equally-fit mutant displace its parent (neutral drift) *)
  let n_es = budget / 2 in
  let n_fresh = min immigrants (budget - n_es) in
  let n_ga = budget - n_es - n_fresh in
  let es = List.init n_es (fun _ -> mutate cfg rng best) in
  let ga =
    List.init n_ga (fun _ ->
        let p1 = tournament rng ranked in
        let p2 = tournament rng ranked in
        mutate cfg rng (crossover rng p1 p2))
  in
  let fresh = List.init n_fresh (fun _ -> random_genome cfg rng) in
  es @ elite @ ga @ fresh

(* {2 Journal documents} *)

let target_name cfg = Cello.name_of_code ~arity:cfg.v_arity cfg.v_target

let manifest_json cfg =
  Json.to_string
    (Json.Object
       [
         ("version", Json.Int 1);
         ("kind", Json.String "space-evolve");
         ("target", Json.Int cfg.v_target);
         ("inputs", Json.Int cfg.v_arity);
         ("seed", Json.Int cfg.v_seed);
         ("pop", Json.Int cfg.v_pop);
         ("genes", Json.Int cfg.v_genes);
         ("elite", Json.Int cfg.v_elite);
         ("max_gens", Json.Int cfg.v_max_gens);
       ])

let config_of_manifest text =
  match Json.parse text with
  | Error m -> Error ("unreadable manifest: " ^ m)
  | Ok v -> (
      let int name = Option.bind (Json.member v name) Json.to_int in
      let kind = Option.bind (Json.member v "kind") Json.to_str in
      match
        (kind, int "target", int "inputs", int "seed", int "pop", int "genes",
         int "elite", int "max_gens")
      with
      | ( Some "space-evolve",
          Some v_target,
          Some v_arity,
          Some v_seed,
          Some v_pop,
          Some v_genes,
          Some v_elite,
          Some v_max_gens ) ->
          Ok { v_target; v_arity; v_seed; v_pop; v_genes; v_elite; v_max_gens }
      | Some k, _, _, _, _, _, _, _ when k <> "space-evolve" ->
          Error "not an evolution journal (kind mismatch)"
      | _ -> Error "not an evolution journal (missing fields)")

let gen_id g = Printf.sprintf "gen-%06d" g

let generation_doc cfg gen pop =
  let (bf, bp, bg), benc, _ = List.hd (rank cfg pop) in
  Json.to_string
    (Json.Object
       [
         ("id", Json.String (gen_id gen));
         ("kind", Json.String "generation");
         ("generation", Json.Int gen);
         ("best", Json.String benc);
         ("best_fitness", Json.Number bf);
         ("best_pfobe", Json.Number bp);
         ("best_gates", Json.Int bg);
         ( "population",
           Json.Array (List.map (fun g -> Json.String (encode g)) pop) );
       ])

type outcome = {
  o_reached : bool;
  o_generation : int;
  o_genome : string;
  o_fitness : float;
  o_pfobe : float;
  o_gates : int;
  o_verified : bool;
  o_provenance : string;
}

type status = Finished of outcome | Interrupted of int

let result_doc cfg o =
  Json.to_string
    (Json.Object
       [
         ("id", Json.String "result");
         ("kind", Json.String "result");
         ("target", Json.String (target_name cfg));
         ("reached", Json.Bool o.o_reached);
         ("generation", Json.Int o.o_generation);
         ("genome", Json.String o.o_genome);
         ("fitness", Json.Number o.o_fitness);
         ("pfobe", Json.Number o.o_pfobe);
         ("gates", Json.Int o.o_gates);
         ("verified", Json.Bool o.o_verified);
         ("provenance", Json.String o.o_provenance);
       ])

let outcome_of_doc doc =
  match Json.parse doc with
  | Error m -> Error ("unreadable result document: " ^ m)
  | Ok v -> (
      let int name = Option.bind (Json.member v name) Json.to_int in
      let num name = Option.bind (Json.member v name) Json.to_number in
      let bool_ name = Option.bind (Json.member v name) Json.to_bool in
      let str name = Option.bind (Json.member v name) Json.to_str in
      match (bool_ "reached", int "generation", str "genome") with
      | Some o_reached, Some o_generation, Some o_genome ->
          Ok
            {
              o_reached;
              o_generation;
              o_genome;
              o_fitness = Option.value ~default:Float.nan (num "fitness");
              o_pfobe = Option.value ~default:Float.nan (num "pfobe");
              o_gates = Option.value ~default:0 (int "gates");
              o_verified = Option.value ~default:false (bool_ "verified");
              o_provenance = Option.value ~default:"-" (str "provenance");
            }
      | _ -> Error "malformed result document")

(* assemble and symbolically certify the reached winner *)
let certify_winner cfg best =
  let nl = netlist_of cfg best in
  let expected = Truth_table.of_code ~arity:cfg.v_arity cfg.v_target in
  let library = Repressor.extended (Netlist.gate_count nl + 1) in
  match
    Assembly.of_netlist ~library ~name:("evolved_" ^ target_name cfg)
      ~expected nl
  with
  | exception Invalid_argument _ -> (false, "undecided")
  | circuit ->
      let cert = Certificate.certify circuit in
      if Certificate.fully_decided cert then
        (Certificate.verified cert = Some true, "certified")
      else (false, "undecided")

let last_generation store =
  List.fold_left
    (fun best id ->
      match
        if String.length id > 4 && String.sub id 0 4 = "gen-" then
          int_of_string_opt (String.sub id 4 (String.length id - 4))
        else None
      with
      | Some g -> max best g
      | None -> best)
    (-1) (Store.completed store)

(* A stored genome must fit the run's shape: [v_genes] slots, each gene
   reading only inputs and earlier slots, an output pointer in range.
   Anything else would index past the genome when decoded. *)
let well_formed cfg g =
  let in_range n x = x >= 0 && x < n in
  Array.length g.genes = cfg.v_genes
  && in_range (cfg.v_arity + cfg.v_genes) g.out
  && Array.mapi
       (fun i (op, a, b) ->
         let slots = cfg.v_arity + i in
         in_range 2 op && in_range slots a && in_range slots b)
       g.genes
     |> Array.for_all Fun.id

let load_population cfg store gen =
  match Store.get store ~id:(gen_id gen) with
  | None -> Error (Printf.sprintf "missing generation document %s" (gen_id gen))
  | Some doc -> (
      match Json.parse doc with
      | Error m -> Error m
      | Ok v -> (
          match Option.bind (Json.member v "population") Json.to_list with
          | None -> Error "generation document lacks a population"
          | Some encs ->
              let pop =
                List.filter_map
                  (fun e -> Option.bind (Json.to_str e) decode_genome)
                  encs
                |> List.filter (well_formed cfg)
              in
              if List.length pop <> List.length encs then
                Error "generation document holds malformed genomes"
              else if List.length pop <> cfg.v_pop then
                Error
                  (Printf.sprintf
                     "generation document %s holds %d genomes, expected a \
                      population of %d"
                     (gen_id gen) (List.length pop) cfg.v_pop)
              else Ok pop))

let validate cfg =
  let bad what = Error (Printf.sprintf "invalid GA config: %s" what) in
  if cfg.v_pop < 1 then
    bad (Printf.sprintf "population size %d (must be at least 1)" cfg.v_pop)
  else if cfg.v_elite < 0 || cfg.v_elite > cfg.v_pop then
    bad
      (Printf.sprintf "elite %d (must be between 0 and the population size %d)"
         cfg.v_elite cfg.v_pop)
  else if cfg.v_genes < 0 then
    bad (Printf.sprintf "gene slots %d (must be non-negative)" cfg.v_genes)
  else if cfg.v_max_gens < 0 then
    bad
      (Printf.sprintf "generation budget %d (must be non-negative)"
         cfg.v_max_gens)
  else Ok ()

let run ?(metrics = Metrics.noop) ?(should_stop = fun () -> false)
    ?(on_progress = fun _ _ _ -> ()) ~dir cfg =
  let ( let* ) = Result.bind in
  let* () = validate cfg in
  let* store, cfg =
    if Sys.file_exists (Filename.concat dir "MANIFEST.json") then
      let* store, manifest = Store.load ~dir in
      let* stored = config_of_manifest manifest in
      let* () =
        Result.map_error
          (fun m -> Printf.sprintf "evolution journal %s: %s" dir m)
          (validate stored)
      in
      if
        stored.v_target <> cfg.v_target
        || stored.v_arity <> cfg.v_arity
        || stored.v_seed <> cfg.v_seed
      then
        Error
          (Printf.sprintf
             "evolution journal %s holds a different run (target %s seed %d)"
             dir
             (target_name stored) stored.v_seed)
      else Ok (store, stored)
    else
      let* store = Store.create ~dir (manifest_json cfg) in
      Ok (store, cfg)
  in
  let generations = Metrics.counter metrics "space.ga_generations" in
  let evaluations = Metrics.counter metrics "space.ga_evaluations" in
  Store.Lock.with_lock ~dir (fun () ->
      match Store.get store ~id:"result" with
      | Some doc -> Result.map (fun o -> Finished o) (outcome_of_doc doc)
      | None ->
          let finish gen pop reached =
            let (bf, bp, bg), benc, best = List.hd (rank cfg pop) in
            let o_verified, o_provenance =
              if reached then certify_winner cfg best else (false, "-")
            in
            let o =
              {
                o_reached = reached;
                o_generation = gen;
                o_genome = benc;
                o_fitness = bf;
                o_pfobe = bp;
                o_gates = bg;
                o_verified;
                o_provenance;
              }
            in
            Store.put store ~id:"result" (result_doc cfg o);
            Ok (Finished o)
          in
          let rec loop gen pop =
            let (bf, bp, _), _, _ = List.hd (rank cfg pop) in
            on_progress gen bf bp;
            if bp >= 100. then finish gen pop true
            else if gen >= cfg.v_max_gens then finish gen pop false
            else if should_stop () then Ok (Interrupted (gen + 1))
            else begin
              let next = step cfg (gen + 1) pop in
              Store.put store ~id:(gen_id (gen + 1)) (generation_doc cfg (gen + 1) next);
              Metrics.Counter.incr generations;
              Metrics.Counter.add evaluations cfg.v_pop;
              loop (gen + 1) next
            end
          in
          let* gen, pop =
            match last_generation store with
            | -1 ->
                let pop = initial_population cfg in
                Store.put store ~id:(gen_id 0) (generation_doc cfg 0 pop);
                Metrics.Counter.incr generations;
                Metrics.Counter.add evaluations cfg.v_pop;
                Ok (0, pop)
            | g ->
                let* pop = load_population cfg store g in
                Ok (g, pop)
          in
          loop gen pop)
  |> Result.join
