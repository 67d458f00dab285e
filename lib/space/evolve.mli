(** Deterministic GA evolution of NOT/NOR circuits toward a target
    function, after Frenz et al., "Evolution of Digital Logic
    Functionality via a Genetic Algorithm" (PAPERS.md).

    A genome is a CGP-style linear program: a fixed number of gene
    slots, each a NOT or NOR gate reading earlier slots or the circuit
    inputs, plus an output pointer. Only the slots reachable from the
    output decode into the phenotype netlist, so gate count is free to
    shrink. Fitness is the PFoBE proxy (percent of truth-table rows
    the decoded netlist matches) × inverse gate cost — exactly the
    frontier currency of the atlas.

    {b Determinism and resume.} Every generation is a pure function of
    [(seed, generation index, previous population)]: the per-generation
    RNG is freshly derived from the seed and the index, selection and
    elitism break ties on the genome encoding, and each generation is
    journaled to the campaign store ({!Glc_campaign.Store}, atomic
    writes) before the next begins. A [kill -9] at any point therefore
    resumes into byte-identical generation documents — the same
    contract the campaign store gives verification jobs, pinned by a
    test. *)

type config = {
  v_target : int;  (** target truth-table code *)
  v_arity : int;
  v_seed : int;
  v_pop : int;  (** population size *)
  v_genes : int;  (** genome gene slots (upper bound on gate count) *)
  v_elite : int;  (** genomes copied unchanged each generation *)
  v_max_gens : int;  (** give up after this many generations *)
}

val default_config : arity:int -> target:int -> config
(** Seed 42, population 64, 48 gene slots, elite 4, 2000 generations.
    Gene slots deliberately exceed the worst minimal 3-input netlist
    (12 gates): the surplus is inactive genetic material, and neutral
    drift through it is what lets the search cross fitness plateaus
    (the standard CGP result). Most benchmark targets are reached well
    inside the defaults; the parity-class stragglers ([0x69], [0x96],
    [0x16]) want [v_genes = 64] and a larger generation budget. *)

type genome

val encode : genome -> string
(** Canonical text form, e.g. ["1:0:2,0:3:0|4"] — genes as
    [op:a:b] (op 0 = NOT reading [a], 1 = NOR reading [a] and [b])
    and the output pointer after ["|"]. Stable across versions: it is
    the on-disk population representation. *)

val decode_genome : string -> genome option
(** Inverse of {!encode}; [None] on malformed input. *)

val netlist_of : config -> genome -> Glc_logic.Netlist.t
(** The phenotype: active genes only, over the sensor input names
    (assembly convention). *)

val fitness : config -> genome -> float * float * int
(** [(fitness, pfobe_proxy, gates)] — fitness is
    [pfobe_proxy + 1/(1 + gates)]: PFoBE with inverse gate cost as the
    secondary objective. The cost term stays below one truth-table
    row's worth of PFoBE, so the search never trades correctness for
    size but, between equally correct circuits, always prefers the
    smaller. *)

type outcome = {
  o_reached : bool;  (** the best genome matches the target exactly *)
  o_generation : int;  (** last generation evaluated *)
  o_genome : string;  (** encoded best genome *)
  o_fitness : float;
  o_pfobe : float;  (** proxy; 100 iff reached *)
  o_gates : int;
  o_verified : bool;
      (** the assembled winner's symbolic certificate verdict (only
          attempted when reached; false otherwise) *)
  o_provenance : string;
      (** ["certified"] / ["undecided"] for a reached target; ["-"]
          otherwise *)
}

type status =
  | Finished of outcome  (** a [result] document is in the store *)
  | Interrupted of int  (** stopped before [generation + 1] ran *)

val run :
  ?metrics:Glc_obs.Metrics.t ->
  ?should_stop:(unit -> bool) ->
  ?on_progress:(int -> float -> float -> unit) ->
  dir:string ->
  config ->
  (status, string) result
(** Creates or resumes the evolution journal in [dir] (holding the
    directory's single-writer lock): replays nothing — the last stored
    generation is loaded and the loop continues from there — and stops
    when the target is reached (the winner is then assembled into a
    genetic circuit and symbolically certified into the [result]
    document), the generation budget is exhausted, or [should_stop]
    fires between generations. [on_progress] receives
    [(generation, best fitness, best pfobe)] per generation. Records
    [space.ga_generations] and [space.ga_evaluations] counters.
    A second call on a finished journal returns the stored outcome
    without evolving. [Error] on a manifest that is not an evolution
    journal or disagrees with [config] on target/arity/seed shape, on a
    config (given or stored) with [v_pop < 1], [v_elite] outside
    [0..v_pop], [v_genes < 0] or [v_max_gens < 0], and on a stored
    generation whose population is not [v_pop] well-formed genomes. *)
