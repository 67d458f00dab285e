(* Tests for glc_space: NPN classification (the 14-class pin for n = 3,
   orbit sizes, bio-class counts), netlist synthesis as a roundtrip
   over the whole 256-function space, the atlas (delay measurement,
   kill + resume = byte-identical SPACE.json) and the GA (seeded
   determinism, interrupt + resume = byte-identical journal). *)

module Truth_table = Glc_logic.Truth_table
module Netlist = Glc_logic.Netlist
module Cello = Glc_gates.Cello
module Protocol = Glc_dvasim.Protocol
module Store = Glc_campaign.Store
module Npn = Glc_space.Npn
module Fn = Glc_space.Fn
module Atlas = Glc_space.Atlas
module Evolve = Glc_space.Evolve

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---- scratch directories ---- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "glc-space-test-%d-%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_dirs2 f =
  with_dir (fun a -> with_dir (fun b -> f a b))

let with_dirs3 f = with_dirs2 (fun a b -> with_dir (fun c -> f a b c))

(* ---- NPN classification ---- *)

(* The published pin: 14 NPN classes cover the 256 3-input functions.
   Representatives and orbit sizes are fixed by the canonicalisation
   order, so any change to the classifier shows up here. *)
let expected_classes_3 =
  [
    (0x00, 2); (0x01, 16); (0x03, 24); (0x06, 24); (0x07, 48); (0x0F, 6);
    (0x16, 16); (0x17, 8); (0x18, 8); (0x19, 48); (0x1B, 24); (0x1E, 24);
    (0x3C, 6); (0x69, 2);
  ]

let test_npn_class_pin () =
  checki "14 classes for n=3" 14 (Npn.class_count ~arity:3);
  checki "4 classes for n=2" 4 (Npn.class_count ~arity:2);
  let cs = Npn.classes ~arity:3 in
  List.iter2
    (fun (rep, size) (rep', members) ->
      checki "representative" rep rep';
      checki "orbit size" size (List.length members))
    expected_classes_3 cs

let test_npn_partition () =
  let cs = Npn.classes ~arity:3 in
  let all = List.concat_map snd cs in
  checki "classes partition the space" 256 (List.length all);
  checki "no duplicates" 256
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun (rep, members) ->
      List.iter
        (fun m ->
          checki
            (Printf.sprintf "canonical 0x%02X" m)
            rep
            (Npn.canonical ~arity:3 m))
        members)
    cs

let test_npn_canonical_invariant () =
  (* the canonical form is constant on every orbit: check a slice of
     transforms against the whole space *)
  let trs = Npn.transforms ~arity:3 in
  checki "96 transforms for n=3" 96 (List.length trs);
  let some = [ List.nth trs 1; List.nth trs 17; List.nth trs 95 ] in
  for code = 0 to 255 do
    List.iter
      (fun tr ->
        checki "canonical invariant under transform"
          (Npn.canonical ~arity:3 code)
          (Npn.canonical ~arity:3 (Npn.apply ~arity:3 tr code)))
      some
  done

let count p = List.length (List.filter p (Fn.all_codes ~arity:3))

let test_bio_classes () =
  (* Ray / Das / Choudhury class sizes over the 3-input space *)
  checki "unate" 104 (count (Npn.is_unate ~arity:3));
  checki "canalizing" 118 (count (Npn.is_canalizing ~arity:3));
  checki "nested-canalizing" 64 (count (Npn.is_nested_canalizing ~arity:3));
  (* AND3 is the textbook nested-canalizing function *)
  checkb "AND3 unate" true (Npn.is_unate ~arity:3 0x80);
  checkb "AND3 canalizing" true (Npn.is_canalizing ~arity:3 0x80);
  checkb "AND3 NCF" true (Npn.is_nested_canalizing ~arity:3 0x80);
  (* parity is none of the three *)
  checkb "parity not unate" false (Npn.is_unate ~arity:3 0x96);
  checkb "parity not canalizing" false (Npn.is_canalizing ~arity:3 0x96);
  (* constants: unate by convention, canalizing by neither *)
  checkb "const unate" true (Npn.is_unate ~arity:3 0x00);
  checkb "const not canalizing" false (Npn.is_canalizing ~arity:3 0xFF)

(* ---- synthesis: the whole space roundtrips ---- *)

let test_synthesis_roundtrip_256 () =
  List.iter
    (fun code ->
      let nl = Fn.netlist ~arity:3 code in
      checki
        (Printf.sprintf "netlist of 0x%02X evaluates to its table" code)
        code
        (Truth_table.to_code (Netlist.to_truth_table nl)))
    (Fn.all_codes ~arity:3)

let test_synthesis_gate_pin () =
  let worst =
    List.fold_left
      (fun acc code ->
        max acc (Netlist.gate_count (Fn.netlist ~arity:3 code)))
      0
      (Fn.all_codes ~arity:3)
  in
  checki "worst minimal 3-input netlist" 12 worst;
  checki "parity needs the full 12" 12
    (Netlist.gate_count (Fn.netlist ~arity:3 0x69))

let test_synthesis_roundtrip_4in =
  QCheck.Test.make ~name:"4-input netlists evaluate to their code"
    ~count:40
    (QCheck.make
       ~print:(Printf.sprintf "0x%04X")
       (QCheck.Gen.int_bound 65535))
    (fun code ->
      Truth_table.to_code
        (Netlist.to_truth_table (Fn.netlist ~arity:4 code))
      = code)

let test_describe () =
  let i = Fn.describe ~arity:3 0x80 in
  checks "name" "0x80" i.Fn.i_name;
  checki "class" (Npn.canonical ~arity:3 0x80) i.Fn.i_class;
  checkb "flags" true
    (i.Fn.i_unate && i.Fn.i_canalizing && i.Fn.i_nested_canalizing);
  checkb "gates and depth positive" true
    (i.Fn.i_gates > 0 && i.Fn.i_depth > 0)

let test_sample_codes () =
  let s1 = Fn.sample_codes ~arity:3 ~seed:7 20 in
  let s2 = Fn.sample_codes ~arity:3 ~seed:7 20 in
  checkb "deterministic" true (s1 = s2);
  checki "size" 20 (List.length s1);
  checki "distinct" 20 (List.length (List.sort_uniq compare s1));
  checkb "sorted" true (List.sort compare s1 = s1);
  checkb "different seed differs" true
    (Fn.sample_codes ~arity:3 ~seed:8 20 <> s1);
  checki "oversampling returns the space" 256
    (List.length (Fn.sample_codes ~arity:3 ~seed:7 999))

(* ---- naming: 0xNN is 3-input, 0xNNNN is 4-input ---- *)

let test_code_names () =
  checks "3-input name" "0x1C" (Cello.name_of_code ~arity:3 0x1C);
  checks "4-input name" "0xBEEF" (Cello.name_of_code ~arity:4 0xBEEF);
  checkb "3-input parse" true
    (Cello.code_of_name "0x1C" = Some (3, 0x1C));
  checkb "4-input parse" true
    (Cello.code_of_name "0x1CAB" = Some (4, 0x1CAB));
  checkb "three digits read as 4-input" true
    (Cello.code_of_name "0x1FF" = Some (4, 0x1FF));
  checkb "garbage rejected" true (Cello.code_of_name "0xZZ" = None);
  checkb "no prefix rejected" true (Cello.code_of_name "28" = None);
  let c = Cello.of_code ~arity:4 0xBEEF in
  checki "4-input circuit arity" 4 (Array.length c.Glc_gates.Circuit.inputs);
  checki "4-input circuit table" 0xBEEF
    (Truth_table.to_code c.Glc_gates.Circuit.expected)

(* ---- propagation delay ---- *)

let light_protocol =
  Protocol.make ~total_time:2000. ~hold_time:250. ~threshold:15. ~seed:1 ()

let test_measure_delay () =
  (* constants never switch: no transitions, no delay *)
  let d = Atlas.measure_delay ~protocol:light_protocol (Cello.of_code 0x00) in
  checki "constant has no transitions" 0 d.Atlas.d_transitions;
  checkb "constant has no worst delay" true (d.Atlas.d_worst = None);
  (* a real function switches, and every switch crosses the threshold
     on the ODE limit well inside the timeout *)
  let d = Atlas.measure_delay ~protocol:light_protocol (Cello.of_code 0x1C) in
  checkb "transitions found" true (d.Atlas.d_transitions > 0);
  checki "all transitions crossed" d.Atlas.d_transitions d.Atlas.d_measured;
  (match d.Atlas.d_worst with
  | None -> Alcotest.fail "expected a worst delay"
  | Some w -> checkb "positive delay" true (w > 0.));
  (* determinism: the measurement is ODE-only *)
  let d' =
    Atlas.measure_delay ~protocol:light_protocol (Cello.of_code 0x1C)
  in
  checkb "deterministic" true (d = d')

(* Early stopping and the single compile change nothing: over the whole
   3-input space, the measurement equals the full-trace scan of the
   allocating reference integrator. *)
let test_measure_delay_oracle () =
  List.iter
    (fun code ->
      let c = Cello.of_code code in
      if
        Atlas.measure_delay ~protocol:light_protocol c
        <> Ode_oracle.measure_delay ~protocol:light_protocol c
      then
        Alcotest.failf "%s: delay differs from the full-trace scan"
          (Fn.name_of_code ~arity:3 code))
    (Fn.all_codes ~arity:3)

(* zero binding constants make every repression factor 0/0 at an empty
   regulator: the measurement must raise the typed error, never clamp
   the NaN into a delay *)
let test_measure_delay_non_finite () =
  let c = Cello.of_code 0x1C in
  let c =
    {
      c with
      Glc_gates.Circuit.regulator_affinity =
        List.map
          (fun (p, (_, n)) -> (p, (0., n)))
          c.Glc_gates.Circuit.regulator_affinity;
    }
  in
  match Atlas.measure_delay ~protocol:light_protocol c with
  | exception Glc_ssa.Compiled.Non_finite_propensity { nf_value; _ } ->
      checkb "the payload is the NaN" true (Float.is_nan nf_value)
  | d ->
      Alcotest.failf "expected Non_finite_propensity, got %d measured"
        d.Atlas.d_measured

(* ---- the atlas: kill + resume = byte-identical SPACE.json ---- *)

let light_config =
  {
    Atlas.inputs = 3;
    sample = Some 6;
    seed = 42;
    replicates = 2;
    threshold = 15.;
    total_time = 2000.;
    hold_time = 250.;
  }

let test_plan_validation () =
  Alcotest.check_raises "arity out of range"
    (Invalid_argument "Atlas.plan: inputs must be in 2..4")
    (fun () -> ignore (Atlas.plan { light_config with Atlas.inputs = 5 }));
  Alcotest.check_raises "4-input space needs a sample"
    (Invalid_argument
       "Atlas.plan: the 4-input space has 65,536 functions — pass a \
        sample size")
    (fun () ->
      ignore
        (Atlas.plan { light_config with Atlas.inputs = 4; sample = None }));
  (* the horizon guard: 16 combinations at hold 250 need total >= 4000 *)
  checkb "short horizon rejected" true
    (match
       Atlas.plan
         { light_config with Atlas.inputs = 4; sample = Some 4 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_atlas_resume_identical () =
  with_dirs3 (fun dir_a dir_b dir_c ->
      let spec = Atlas.plan light_config in
      (* uninterrupted reference run, counting interrupt polls; delay
         tasks poll from worker domains, so the hook is an Atomic *)
      let polls = Atomic.make 0 in
      let sa =
        Result.get_ok
          (Atlas.run
             ~should_stop:(fun () ->
               Atomic.incr polls;
               false)
             ~dir:dir_a spec)
      in
      checki "all done" sa.Atlas.a_functions sa.Atlas.a_done;
      checki "nothing pending" 0 sa.Atlas.a_remaining;
      checki "all delays" sa.Atlas.a_delays_total sa.Atlas.a_delays;
      checkb "no delay failures" true (sa.Atlas.a_delay_failures = []);
      (* killed after 3 jobs, then resumed *)
      let sb = Result.get_ok (Atlas.run ~limit:3 ~dir:dir_b spec) in
      checkb "limit leaves work" true (sb.Atlas.a_remaining > 0);
      let sb' = Result.get_ok (Atlas.run ~dir:dir_b spec) in
      checki "resume finishes" 0 sb'.Atlas.a_remaining;
      (* interrupted inside the delay phase: the run polls once per job,
         then once per delay task, so stopping from poll [jobs + 2] on
         lets exactly two delay tasks measure *)
      let job_polls = Atomic.get polls - sa.Atlas.a_delays in
      let seen = Atomic.make 0 in
      let stop () = Atomic.fetch_and_add seen 1 >= job_polls + 2 in
      let sc = Result.get_ok (Atlas.run ~should_stop:stop ~dir:dir_c spec) in
      checki "every job ran before the interrupt" 0 sc.Atlas.a_remaining;
      checki "two delays before the interrupt" 2 sc.Atlas.a_delays;
      let sc' = Result.get_ok (Atlas.run ~dir:dir_c spec) in
      checki "resume measures the rest" sc'.Atlas.a_delays_total
        sc'.Atlas.a_delays;
      let json dir =
        let store, spec' = Result.get_ok (Glc_campaign.Resume.load ~dir) in
        Atlas.space_json store spec'
      in
      checks "byte-identical SPACE.json" (json dir_a) (json dir_b);
      checks "byte-identical SPACE.json after a mid-delay interrupt"
        (json dir_a) (json dir_c);
      (* and the markdown renders from it *)
      (match Atlas.markdown (json dir_a) with
      | Error e -> Alcotest.fail e
      | Ok md ->
          checkb "atlas mentions the run size" true
            (let needle = "6 of 256" in
             let n = String.length needle in
             let rec find i =
               i + n <= String.length md
               && (String.sub md i n = needle || find (i + 1))
             in
             find 0)))

let test_atlas_certified_only () =
  with_dir (fun dir ->
      let spec = Atlas.plan light_config in
      let s =
        Result.get_ok (Atlas.run ~certified_only:true ~dir spec)
      in
      (* certified-only never simulates: whatever completed did so via
         the symbolic certificate *)
      let store, spec' = Result.get_ok (Glc_campaign.Resume.load ~dir) in
      let ls = Store.lines store spec' in
      List.iter
        (fun l ->
          if l.Store.l_done then
            checks "provenance" "certified" l.Store.l_provenance)
        ls;
      checki "done + pending = all" s.Atlas.a_functions
        (s.Atlas.a_done + s.Atlas.a_remaining))

(* ---- the GA: determinism and resume ---- *)

let ga_config =
  {
    Evolve.v_target = 0x96;
    (* hard on purpose: the run exhausts its budget, exercising every
       generation *)
    v_arity = 3;
    v_seed = 7;
    v_pop = 16;
    v_genes = 16;
    v_elite = 2;
    v_max_gens = 4;
  }

let gen_docs dir =
  let store, _ = Result.get_ok (Store.load ~dir) in
  List.filter_map
    (fun id ->
      if String.length id >= 4 && String.sub id 0 4 = "gen-" then
        Some (id, Option.get (Store.get store ~id))
      else None)
    (List.sort compare (Store.completed store))

let test_ga_deterministic () =
  with_dirs2 (fun dir_a dir_b ->
      let run dir = Result.get_ok (Evolve.run ~dir ga_config) in
      (match (run dir_a, run dir_b) with
      | Evolve.Finished a, Evolve.Finished b ->
          checkb "budget exhausted, not reached" false a.Evolve.o_reached;
          checkb "same outcome" true (a = b)
      | _ -> Alcotest.fail "expected two finished runs");
      let da = gen_docs dir_a and db = gen_docs dir_b in
      (* generation 0 (the seeded initial population) plus each evolved
         generation *)
      checki "journalled generations"
        (ga_config.Evolve.v_max_gens + 1)
        (List.length da);
      checkb "byte-identical generation journal" true (da = db))

let test_ga_resume_identical () =
  with_dirs2 (fun dir_a dir_b ->
      ignore (Result.get_ok (Evolve.run ~dir:dir_a ga_config));
      (* stop after two generations, then resume *)
      let calls = ref 0 in
      let stop () =
        incr calls;
        !calls > 2
      in
      (match Result.get_ok (Evolve.run ~should_stop:stop ~dir:dir_b ga_config) with
      | Evolve.Interrupted _ -> ()
      | Evolve.Finished _ -> Alcotest.fail "expected an interrupt");
      (match Result.get_ok (Evolve.run ~dir:dir_b ga_config) with
      | Evolve.Finished _ -> ()
      | Evolve.Interrupted _ -> Alcotest.fail "expected completion");
      checkb "kill + resume journal is byte-identical" true
        (gen_docs dir_a = gen_docs dir_b))

let test_ga_reaches_easy_target () =
  with_dir (fun dir ->
      let cfg = Evolve.default_config ~arity:3 ~target:0x80 in
      match Result.get_ok (Evolve.run ~dir cfg) with
      | Evolve.Interrupted _ -> Alcotest.fail "unexpected interrupt"
      | Evolve.Finished o ->
          checkb "reached" true o.Evolve.o_reached;
          Alcotest.check (Alcotest.float 0.) "pfobe 100" 100.
            o.Evolve.o_pfobe;
          checkb "gates counted" true (o.Evolve.o_gates > 0);
          checks "winner certifies" "certified" o.Evolve.o_provenance;
          checkb "genome decodes" true
            (Evolve.decode_genome o.Evolve.o_genome <> None);
          (* a second call returns the stored outcome without evolving *)
          let store, _ = Result.get_ok (Store.load ~dir) in
          let n_docs = List.length (Store.completed store) in
          (match Result.get_ok (Evolve.run ~dir cfg) with
          | Evolve.Finished o' -> checkb "idempotent" true (o = o')
          | Evolve.Interrupted _ -> Alcotest.fail "unexpected interrupt");
          let store, _ = Result.get_ok (Store.load ~dir) in
          checki "no new documents" n_docs
            (List.length (Store.completed store)))

let test_ga_config_mismatch () =
  with_dir (fun dir ->
      ignore (Result.get_ok (Evolve.run ~dir ga_config));
      match
        Evolve.run ~dir { ga_config with Evolve.v_seed = 8 }
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected a config-mismatch error")

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

(* offset of the first occurrence of [sub] in [s] *)
let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then raise Not_found
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go 0

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected an Error" what

let glcv_exe = Filename.concat (Sys.getcwd ()) "../bin/glcv.exe"

(* Runs the CLI with stdout discarded; returns the exit code and the
   captured stderr. *)
let run_glcv args =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let err_path = Filename.concat dir "stderr" in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let err =
        Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
      in
      let pid =
        Unix.create_process glcv_exe
          (Array.of_list (glcv_exe :: args))
          devnull devnull err
      in
      Unix.close devnull;
      Unix.close err;
      let code =
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED code -> code
        | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
      in
      (code, read_file err_path))

let test_ga_bad_config () =
  (* every bad shape is a typed error before anything is persisted *)
  List.iter
    (fun (what, cfg) ->
      with_dir (fun dir ->
          expect_error what (Evolve.run ~dir cfg);
          checkb (what ^ ": nothing persisted") false (Sys.file_exists dir)))
    [
      ("pop 0", { ga_config with Evolve.v_pop = 0 });
      ("pop -3", { ga_config with Evolve.v_pop = -3 });
      ("elite -1", { ga_config with Evolve.v_elite = -1 });
      ("elite > pop", { ga_config with Evolve.v_elite = 17 });
      ("genes -1", { ga_config with Evolve.v_genes = -1 });
      ("gens -1", { ga_config with Evolve.v_max_gens = -1 });
    ];
  (* the same cases through the CLI flags: a one-line diagnostic and
     the CLI-error exit code, not an uncaught exception (125) *)
  List.iter
    (fun flag ->
      with_dir (fun dir ->
          let code, err =
            run_glcv [ "space"; "evolve"; "0x80"; flag; "--dir"; dir ]
          in
          checki (flag ^ ": exit code") 123 code;
          checkb (flag ^ ": one-line diagnostic") true
            (String.length err > 0
            && String.index_opt err '\n' = Some (String.length err - 1))))
    [ "--pop=0"; "--pop=-3"; "--elite=-1" ]

let test_ga_tampered_journal () =
  (* a journal interrupted after generation 0, then edited on disk *)
  let interrupted dir =
    match Evolve.run ~should_stop:(fun () -> true) ~dir ga_config with
    | Ok (Evolve.Interrupted 1) -> Result.get_ok (Store.load ~dir) |> fst
    | _ -> Alcotest.fail "expected an interrupt after generation 0"
  in
  let tamper what edit =
    with_dir (fun dir ->
        let store = interrupted dir in
        let path = Store.result_path store ~id:"gen-000000" in
        write_file path (edit (read_file path));
        expect_error what (Evolve.run ~dir ga_config))
  in
  let replace_population pop doc =
    let i = find_sub doc "\"population\":[" in
    String.sub doc 0 i ^ "\"population\":" ^ pop ^ "}"
  in
  (* a genome of the run's shape (16 genes reading input 0) with the
     given output pointer, as a JSON string *)
  let genome out =
    Printf.sprintf "\"%s|%d\""
      (String.concat "," (List.init 16 (fun _ -> "0:0:0")))
      out
  in
  let population n out =
    "[" ^ String.concat "," (List.init n (fun _ -> genome out)) ^ "]"
  in
  tamper "empty population" (replace_population "[]");
  tamper "short population" (replace_population (population 1 0));
  tamper "output pointer out of range"
    (replace_population (population 16 99));
  (* a manifest edited to an invalid population size *)
  with_dir (fun dir ->
      ignore (interrupted dir);
      let path = Filename.concat dir "MANIFEST.json" in
      let m = read_file path in
      let i = find_sub m "\"pop\":16" in
      write_file path
        (String.sub m 0 i ^ "\"pop\":0"
        ^ String.sub m (i + 8) (String.length m - i - 8));
      expect_error "manifest pop 0" (Evolve.run ~dir ga_config))

let qc = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "glc_space"
    [
      ( "npn",
        [
          Alcotest.test_case "class pin" `Quick test_npn_class_pin;
          Alcotest.test_case "partition" `Quick test_npn_partition;
          Alcotest.test_case "canonical invariant" `Quick
            test_npn_canonical_invariant;
          Alcotest.test_case "bio classes" `Quick test_bio_classes;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "roundtrip over the 256" `Quick
            test_synthesis_roundtrip_256;
          Alcotest.test_case "gate pin" `Quick test_synthesis_gate_pin;
          Alcotest.test_case "describe" `Quick test_describe;
          Alcotest.test_case "sample codes" `Quick test_sample_codes;
          Alcotest.test_case "code names" `Quick test_code_names;
        ]
        @ qc [ test_synthesis_roundtrip_4in ] );
      ( "atlas",
        [
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
          Alcotest.test_case "measure delay" `Quick test_measure_delay;
          Alcotest.test_case "measure delay matches the full-trace oracle"
            `Slow test_measure_delay_oracle;
          Alcotest.test_case "non-finite law is a typed delay error" `Quick
            test_measure_delay_non_finite;
          Alcotest.test_case "kill + resume identical" `Quick
            test_atlas_resume_identical;
          Alcotest.test_case "certified only" `Quick
            test_atlas_certified_only;
        ] );
      ( "evolve",
        [
          Alcotest.test_case "deterministic" `Quick test_ga_deterministic;
          Alcotest.test_case "kill + resume identical" `Quick
            test_ga_resume_identical;
          Alcotest.test_case "reaches an easy target" `Slow
            test_ga_reaches_easy_target;
          Alcotest.test_case "config mismatch" `Quick
            test_ga_config_mismatch;
          Alcotest.test_case "bad config is a typed error" `Quick
            test_ga_bad_config;
          Alcotest.test_case "tampered journal is a typed error" `Quick
            test_ga_tampered_journal;
        ] );
    ]
