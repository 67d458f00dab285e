(** Static analysis of genetic circuit models — the pre-flight pass.

    Every check here decides, {e without simulating}, something a
    verification run would otherwise spend thousands of SSA steps
    discovering: an output no reaction can ever produce, a reaction
    whose propensity is identically zero, a conservation law that pins
    the output below the logic threshold, a protocol too short to apply
    every input combination. Each finding is a {!Diagnostic.t} with a
    stable [GLC]-prefixed code; the full catalogue is {!catalogue}.

    Entry points mirror the artefacts of the toolchain: a kinetic
    {!model}, an SBOL {!document}, a {!cross}-document pair, a gate
    {!netlist}, a D-VASim {!protocol} and a complete {!circuit} (which
    composes all of the above). {!files} groups [.sbml.xml]/[.sbol.xml]
    paths by basename and lints each group, pairing sibling documents
    for the cross checks — this is what [glcv lint] runs.

    Results are sorted with {!Diagnostic.compare} (errors first), and a
    live metrics registry records [lint.*] counters (checks run,
    diagnostics, errors, warnings).

    {2 Check catalogue}

    - [GLC001] (error) — ill-formed model or document: structural
      validation failures ({!Glc_model.Model.validate_issues},
      {!Glc_sbol.Document.validate}), and unreadable/unparseable input
      files.
    - [GLC002] (error/warning) — unproducible species: a non-boundary
      species with initial amount 0 that no fireable reaction produces
      can never become positive. An error when it is the circuit
      output (verification is then guaranteed to fail), a warning
      otherwise.
    - [GLC003] (warning) — unreachable reaction: a reaction that can
      never fire, because a reactant is provably stuck at zero or its
      propensity is identically zero (e.g. a zero rate constant).
    - [GLC004] (warning) — inert reaction: every reactant and product
      is a boundary species, so firings change nothing while still
      consuming SSA steps ({!Glc_ssa.Compiled.inert_reactions}).
    - [GLC005] (error) — output bounded below threshold: a conservation
      law (a constant species, or a conserved pairwise sum) bounds the
      output's copy number below the logic threshold — it can never
      digitise high.
    - [GLC006] (warning) — kinetic-law sanity: a propensity that is
      negative or not finite at the initial state.
    - [GLC007] (info) — unused parameter: declared but referenced by no
      kinetic law.
    - [GLC008] (error) — arity mismatch: the expected truth table's
      arity differs from the circuit's input count, the document's
      input proteins differ from the declared inputs, or a netlist does
      not compute its intended table.
    - [GLC009] (warning) — constant expected logic: the intended truth
      table is constant, so verification is trivial.
    - [GLC010] (error/info) — SBML/SBOL cross-document mismatch: a
      protein with no species, an input protein that is not a boundary
      species, a production interaction with no producing reaction
      (errors); differing document/model ids (info).
    - [GLC011] (error) — protocol sanity: hold slots shorter than the
      sampling step, a horizon too short to apply every input
      combination, or input drive levels inconsistent with the
      threshold. *)

type check = {
  ck_code : string;  (** e.g. ["GLC005"] *)
  ck_severity : Diagnostic.severity;  (** worst severity it can emit *)
  ck_title : string;  (** short name, e.g. ["unproducible species"] *)
  ck_doc : string;  (** one-sentence description *)
}

val catalogue : check list
(** All implemented checks, in code order. *)

val model :
  ?threshold:float ->
  ?output:string ->
  ?metrics:Glc_obs.Metrics.t ->
  Glc_model.Model.t ->
  Diagnostic.t list
(** Checks GLC001–GLC007 on a kinetic model. [threshold] (default: the
    paper's 15 molecules) parameterises GLC005; [output] designates the
    species whose digitisation the verification will judge — without
    it, GLC002 cannot escalate to an error and GLC005 is skipped.
    When GLC001 fires, only those diagnostics are returned: the
    remaining analyses need a well-formed model to compile. *)

val document :
  ?metrics:Glc_obs.Metrics.t -> Glc_sbol.Document.t -> Diagnostic.t list
(** GLC001 on a structural document ({!Glc_sbol.Document.validate}). *)

val cross :
  ?metrics:Glc_obs.Metrics.t ->
  model:Glc_model.Model.t ->
  Glc_sbol.Document.t ->
  Diagnostic.t list
(** GLC010: consistency of a structural document with the kinetic model
    generated from (or shipped alongside) it. *)

val protocol :
  ?metrics:Glc_obs.Metrics.t ->
  arity:int ->
  Glc_dvasim.Protocol.t ->
  Diagnostic.t list
(** GLC011 for an [arity]-input circuit. *)

val netlist :
  ?metrics:Glc_obs.Metrics.t ->
  expected:Glc_logic.Truth_table.t ->
  Glc_logic.Netlist.t ->
  Diagnostic.t list
(** GLC008 on a gate netlist: input-count/arity mismatch, and a
    tabulation that differs from the intended table. *)

val circuit :
  ?protocol:Glc_dvasim.Protocol.t ->
  ?metrics:Glc_obs.Metrics.t ->
  Glc_gates.Circuit.t ->
  Diagnostic.t list
(** The full pre-flight pass for a verification run: {!model} on the
    circuit's kinetic model (with its reporter as [output] and the
    protocol's threshold), {!cross} against its document, {!protocol}
    at the circuit's arity, plus the circuit-level arity (GLC008) and
    constant-logic (GLC009) checks. This is the guard [glcv
    verify]/[ensemble]/[campaign run] execute unless [--no-lint] is
    given. *)

type file_report = {
  fr_path : string;
      (** the lint group: a file path, or the common prefix of a
          paired [NAME.sbml.xml]/[NAME.sbol.xml] sibling set *)
  fr_diagnostics : Diagnostic.t list;
}

val files :
  ?threshold:float ->
  ?metrics:Glc_obs.Metrics.t ->
  string list ->
  file_report list
(** Lints model files, in first-seen group order. Paths ending in
    [.sbml.xml]/[.sbol.xml] are grouped by the remaining prefix; when a
    group has both documents they are cross-checked (GLC010) and the
    document's unique reporter protein, if any, becomes the [output]
    for GLC002/GLC005. Other paths are sniffed (SBML first, then
    SBOL). Unreadable or unparseable files yield a GLC001 error
    diagnostic rather than an exception. *)

val report_exit_code : file_report list -> int
(** {!Diagnostic.exit_code} over all groups: 0 clean, 1 warnings,
    2 errors. *)

val report_json : file_report list -> string
(** Machine-readable report:
    [{"files":[{"file":..,"errors":..,"warnings":..,"diagnostics":
    [..]},..],"summary":{"files":..,"errors":..,"warnings":..,
    "exit":..}}]. Deterministic for a given input list. *)
