(* Tests for glc_ssa: the RNG, the indexed heap, trace recording, event
   schedules, model compilation and both exact SSA variants. *)

module Rng = Glc_ssa.Rng
module Indexed_heap = Glc_ssa.Indexed_heap
module Trace = Glc_ssa.Trace
module Events = Glc_ssa.Events
module Compiled = Glc_ssa.Compiled
module Sim = Glc_ssa.Sim
module Model = Glc_model.Model
module Math = Glc_model.Math

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)
let checks = Alcotest.check Alcotest.string

(* ---- rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 17 and b = Rng.create 17 in
  for _ = 1 to 100 do
    checkb "same stream" true (Int64.equal (Rng.bits64 a) (Rng.bits64 b))
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 17 and b = Rng.create 18 in
  checkb "different seeds differ" false
    (Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let test_rng_copy () =
  let a = Rng.create 3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  checkb "copy continues identically" true
    (Int64.equal (Rng.bits64 a) (Rng.bits64 b));
  ignore (Rng.bits64 a);
  (* a advanced one extra step; streams now out of phase *)
  checkb "independent afterwards" false
    (Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let test_rng_float_range () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %g" x
  done;
  let r = Rng.create 6 in
  for _ = 1 to 10_000 do
    let x = Rng.float_pos r in
    if x <= 0. || x > 1. then Alcotest.failf "float_pos out of range: %g" x
  done

let test_rng_float_mean () =
  let r = Rng.create 7 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float r
  done;
  checkf 0.01 "uniform mean" 0.5 (!sum /. float_of_int n)

let test_rng_int () =
  let r = Rng.create 8 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let k = Rng.int r 10 in
    if k < 0 || k >= 10 then Alcotest.failf "int out of range: %d" k;
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      (* each bucket expects 5000; allow 10% deviation *)
      if c < 4500 || c > 5500 then Alcotest.failf "skewed bucket: %d" c)
    counts;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int r 0))

let test_rng_exponential () =
  let r = Rng.create 9 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Rng.exponential r ~rate:4. in
    if x < 0. then Alcotest.fail "negative waiting time";
    sum := !sum +. x
  done;
  checkf 0.01 "mean 1/rate" 0.25 (!sum /. float_of_int n);
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Rng.exponential: rate <= 0") (fun () ->
      ignore (Rng.exponential r ~rate:0.))

let test_rng_split () =
  let a = Rng.create 10 in
  let b = Rng.split a in
  checkb "split decorrelates" false
    (Int64.equal (Rng.bits64 a) (Rng.bits64 b))

(* The stream-independence contract documented in rng.mli, which the
   ensemble engine's counter-based seed derivation relies on. *)

let prop_rng_split_deterministic =
  QCheck.Test.make ~name:"split is deterministic given the parent state"
    ~count:50 QCheck.small_int (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      let sa = Rng.split a and sb = Rng.split b in
      let children_agree = ref true in
      for _ = 1 to 100 do
        if not (Int64.equal (Rng.bits64 sa) (Rng.bits64 sb)) then
          children_agree := false
      done;
      (* splitting advanced both parents identically *)
      !children_agree && Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let prop_rng_split_no_collisions =
  QCheck.Test.make ~name:"split streams don't collide on first 1k draws"
    ~count:20 QCheck.small_int (fun seed ->
      let parent = Rng.create seed in
      let s1 = Rng.split parent in
      let s2 = Rng.split parent in
      (* no 64-bit output may appear in two different streams *)
      let seen = Hashtbl.create 8192 in
      let clean = ref true in
      let drain tag rng =
        for _ = 1 to 1_000 do
          let v = Rng.bits64 rng in
          (match Hashtbl.find_opt seen v with
          | Some owner when owner <> tag -> clean := false
          | Some _ | None -> ());
          Hashtbl.replace seen v tag
        done
      in
      drain `Sibling1 s1;
      drain `Sibling2 s2;
      drain `Parent parent;
      !clean)

(* The bounded-int rejection sampler, pinned by properties. The old
   acceptance condition compared against [max_int lsr 2] although the
   draw already keeps only 62 bits (= [max_int] exactly), so it rejected
   3 of every 4 draws at small bounds and looped forever for bounds
   above 2^60. *)

let prop_rng_int_range =
  QCheck.Test.make ~name:"int stays in [0, bound) and terminates, any bound"
    ~count:100
    QCheck.(
      pair small_int
        (oneofl
           [
             1; 2; 7; 1000; 1 lsl 20; 1 lsl 40; (1 lsl 60) + 9; 1 lsl 61;
             max_int - 1; max_int;
           ]))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_rng_int_uniform =
  QCheck.Test.make ~name:"int is uniform (chi-square)" ~count:20
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let n = 10_000 in
      let counts = Array.make bound 0 in
      for _ = 1 to n do
        let v = Rng.int r bound in
        counts.(v) <- counts.(v) + 1
      done;
      let expected = float_of_int n /. float_of_int bound in
      let chi2 =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. expected in
            acc +. (d *. d /. expected))
          0. counts
      in
      (* df <= 11: P(chi2 > 50) < 1e-6, stable across QCheck seeds *)
      chi2 < 50.)

let test_rng_gaussian () =
  let r = Rng.create 21 in
  let n = 50_000 in
  let sum = ref 0. and sum2 = ref 0. in
  for _ = 1 to n do
    let x = Rng.gaussian r in
    sum := !sum +. x;
    sum2 := !sum2 +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  checkf 0.02 "zero mean" 0. mean;
  checkf 0.03 "unit variance" 1. var

let test_rng_poisson () =
  let r = Rng.create 22 in
  let sample mean n =
    let sum = ref 0 in
    for _ = 1 to n do
      sum := !sum + Rng.poisson r ~mean
    done;
    float_of_int !sum /. float_of_int n
  in
  (* exact (Knuth) regime *)
  checkf 0.1 "small mean" 3. (sample 3. 20_000);
  (* PTRS regime *)
  checkf 2. "large mean" 200. (sample 200. 5_000);
  (* a mean where e^-mean underflows to 0. — the old exp-based inversion
     would loop forever here and the normal approximation truncated *)
  checkf 100. "huge mean" 50_000. (sample 50_000. 2_000);
  checki "zero mean" 0 (Rng.poisson r ~mean:0.);
  let bad =
    Invalid_argument "Rng.poisson: mean must be finite and non-negative"
  in
  Alcotest.check_raises "negative mean" bad (fun () ->
      ignore (Rng.poisson r ~mean:(-1.)));
  Alcotest.check_raises "non-finite mean" bad (fun () ->
      ignore (Rng.poisson r ~mean:Float.infinity))

(* Exact-distribution check in the PTRS regime: bins of ~equal exact
   probability are built from the Poisson pmf (computed in logs, like
   the sampler itself), so the test is sensitive to the truncation bias
   a rounded normal approximation has — mean alone is not. *)
let prop_rng_poisson_chi_square =
  QCheck.Test.make ~name:"poisson is exact at large means (chi-square)"
    ~count:8
    QCheck.(oneofl [ 12.; 35.; 80.; 250.; 900.; 3000. ])
    (fun mean ->
      let log_fact =
        let tbl = Array.make 10 0. in
        for k = 2 to 9 do
          tbl.(k) <- tbl.(k - 1) +. log (float_of_int k)
        done;
        fun k ->
          if k < 10 then tbl.(k)
          else
            let x = float_of_int (k + 1) in
            ((x -. 0.5) *. log x) -. x
            +. (0.5 *. log (2. *. Float.pi))
            +. (1. /. (12. *. x))
      in
      let pmf k =
        Float.exp ((float_of_int k *. log mean) -. mean -. log_fact k)
      in
      let sigma = sqrt mean in
      let lo = max 0 (int_of_float (mean -. (6. *. sigma))) in
      let hi = int_of_float (mean +. (6. *. sigma)) + 1 in
      (* upper-inclusive bin edges of ~1/12 exact mass each; the final
         bin is open above, so the ~1e-9 tails land in the end bins *)
      let edges = ref [] and probs = ref [] in
      let acc = ref 0. in
      for k = lo to hi do
        let p = pmf k in
        acc := !acc +. p;
        if !acc >= 1. /. 12. && k < hi then begin
          edges := k :: !edges;
          probs := !acc :: !probs;
          acc := 0.
        end
      done;
      let closed = List.rev !probs in
      let edges = Array.of_list (List.rev (hi :: !edges)) in
      let probs =
        Array.of_list
          (closed @ [ 1. -. List.fold_left ( +. ) 0. closed ])
      in
      let nbins = Array.length edges in
      let counts = Array.make nbins 0 in
      let r = Rng.create (int_of_float mean + 7) in
      let n = 20_000 in
      for _ = 1 to n do
        let k = Rng.poisson r ~mean in
        let rec bin i =
          if i >= nbins - 1 || k <= edges.(i) then i else bin (i + 1)
        in
        let b = bin 0 in
        counts.(b) <- counts.(b) + 1
      done;
      let chi2 = ref 0. in
      Array.iteri
        (fun i c ->
          let e = float_of_int n *. probs.(i) in
          let d = float_of_int c -. e in
          chi2 := !chi2 +. (d *. d /. e))
        counts;
      (* df <= 11: P(chi2 > 60) < 1e-8 per case, deterministic seeds *)
      !chi2 < 60.)

(* ---- indexed heap ---- *)

let test_heap_basic () =
  let h = Indexed_heap.create 4 in
  checki "size" 4 (Indexed_heap.size h);
  Indexed_heap.update h 0 3.0;
  Indexed_heap.update h 1 1.0;
  Indexed_heap.update h 2 2.0;
  let id, key = Indexed_heap.min h in
  checki "min id" 1 id;
  checkf 0. "min key" 1.0 key;
  Indexed_heap.update h 1 10.0;
  let id, _ = Indexed_heap.min h in
  checki "new min after increase" 2 id;
  Indexed_heap.update h 3 0.5;
  let id, _ = Indexed_heap.min h in
  checki "new min after decrease" 3 id;
  checkb "valid" true (Indexed_heap.is_valid h)

let prop_heap_random_ops =
  QCheck.Test.make ~name:"heap stays valid and tracks the minimum"
    ~count:200
    QCheck.(list (pair (int_bound 15) (map float_of_int (int_bound 1000))))
    (fun ops ->
      let h = Indexed_heap.create 16 in
      let keys = Array.make 16 infinity in
      List.for_all
        (fun (id, key) ->
          Indexed_heap.update h id key;
          keys.(id) <- key;
          let min_id, min_key = Indexed_heap.min h in
          let true_min = Array.fold_left Float.min infinity keys in
          Indexed_heap.is_valid h
          && min_key = true_min
          && keys.(min_id) = true_min)
        ops)

(* ---- trace recorder ---- *)

let test_recorder_hold () =
  let r =
    Trace.Recorder.create ~names:[| "x" |] ~initial:[| 1. |] ~t0:0.
      ~t_end:10. ~dt:1.
  in
  Trace.Recorder.observe r 0. [| 1. |];
  Trace.Recorder.observe r 2.5 [| 5. |];
  Trace.Recorder.observe r 7. [| 2. |];
  let tr = Trace.Recorder.finish r in
  checki "samples" 11 (Trace.length tr);
  (* zero-order hold: value at grid g is the state holding just before g *)
  checkf 0. "t=0" 1. (Trace.value tr "x" 0);
  checkf 0. "t=2" 1. (Trace.value tr "x" 2);
  checkf 0. "t=3" 5. (Trace.value tr "x" 3);
  checkf 0. "t=6" 5. (Trace.value tr "x" 6);
  checkf 0. "t=7" 2. (Trace.value tr "x" 7);
  checkf 0. "t=10" 2. (Trace.value tr "x" 10)

let test_recorder_exact_grid_point () =
  let r =
    Trace.Recorder.create ~names:[| "x" |] ~initial:[| 0. |] ~t0:0.
      ~t_end:4. ~dt:1.
  in
  Trace.Recorder.observe r 0. [| 0. |];
  Trace.Recorder.observe r 2. [| 9. |];
  let tr = Trace.Recorder.finish r in
  (* a jump exactly on a grid point is visible at that point *)
  checkf 0. "t=1" 0. (Trace.value tr "x" 1);
  checkf 0. "t=2" 9. (Trace.value tr "x" 2)

let test_recorder_backwards () =
  let r =
    Trace.Recorder.create ~names:[| "x" |] ~initial:[| 0. |] ~t0:0.
      ~t_end:5. ~dt:1.
  in
  Trace.Recorder.observe r 3. [| 1. |];
  Alcotest.check_raises "backwards"
    (Invalid_argument "Trace.Recorder.observe: time went backwards")
    (fun () -> Trace.Recorder.observe r 2. [| 2. |])

let make_trace () =
  let r =
    Trace.Recorder.create ~names:[| "a"; "b" |] ~initial:[| 0.; 10. |]
      ~t0:0. ~t_end:9. ~dt:1.
  in
  Trace.Recorder.observe r 0. [| 0.; 10. |];
  Trace.Recorder.observe r 5. [| 4.; 6. |];
  Trace.Recorder.finish r

let test_trace_accessors () =
  let tr = make_trace () in
  Alcotest.(check (array string)) "names" [| "a"; "b" |] (Trace.names tr);
  checki "length" 10 (Trace.length tr);
  checkf 0. "time" 3. (Trace.time tr 3);
  checkf 0. "mean a" 2. (Trace.mean tr "a");
  checkf 0. "max b" 10. (Trace.max_value tr "b");
  checkb "index" true (Trace.index tr "b" = Some 1);
  checkb "missing" true (Trace.index tr "zz" = None);
  let sub = Trace.sub tr ~from:5 ~until:10 in
  checki "sub length" 5 (Trace.length sub);
  checkf 0. "sub t0" 5. (Trace.t0 sub);
  checkf 0. "sub value" 4. (Trace.value sub "a" 0)

let test_trace_csv_roundtrip () =
  let tr = make_trace () in
  match Trace.of_csv (Trace.to_csv tr) with
  | Error e -> Alcotest.fail e
  | Ok tr' ->
      Alcotest.(check (array string))
        "names" (Trace.names tr) (Trace.names tr');
      checki "length" (Trace.length tr) (Trace.length tr');
      for k = 0 to Trace.length tr - 1 do
        checkf 0. "a" (Trace.value tr "a" k) (Trace.value tr' "a" k);
        checkf 0. "b" (Trace.value tr "b" k) (Trace.value tr' "b" k)
      done

let test_trace_statistics () =
  let r =
    Trace.Recorder.create ~names:[| "x" |] ~initial:[| 2. |] ~t0:0.
      ~t_end:3. ~dt:1.
  in
  Trace.Recorder.observe r 0. [| 2. |];
  Trace.Recorder.observe r 1. [| 4. |];
  Trace.Recorder.observe r 2. [| 6. |];
  Trace.Recorder.observe r 3. [| 8. |];
  let tr = Trace.Recorder.finish r in
  (* samples 2,4,6,8: mean 5, variance 5 *)
  checkf 1e-9 "mean" 5. (Trace.mean tr "x");
  checkf 1e-9 "variance" 5. (Trace.variance tr "x");
  checkf 1e-9 "fano" 1. (Trace.fano_factor tr "x");
  checki "crossings of 5" 1 (Trace.crossings tr "x" 5.);
  checki "crossings of 3" 1 (Trace.crossings tr "x" 3.);
  checki "crossings of 100" 0 (Trace.crossings tr "x" 100.);
  (* the _opt forms agree with the sentinel forms on non-empty data *)
  checkb "mean_opt agrees" true (Trace.mean_opt tr "x" = Some 5.);
  checkb "variance_opt agrees" true (Trace.variance_opt tr "x" = Some 5.);
  checkb "fano_opt agrees" true (Trace.fano_factor_opt tr "x" = Some 1.)

let test_trace_empty_statistics () =
  let tr = make_trace () in
  let empty = Trace.sub tr ~from:0 ~until:0 in
  checki "empty length" 0 (Trace.length empty);
  (* the _opt accessors make emptiness unmissable... *)
  checkb "mean_opt" true (Trace.mean_opt empty "a" = None);
  checkb "variance_opt" true (Trace.variance_opt empty "a" = None);
  checkb "fano_opt" true (Trace.fano_factor_opt empty "a" = None);
  (* ...while the plain forms keep their documented sentinels *)
  checkf 0. "mean sentinel" 0. (Trace.mean empty "a");
  checkf 0. "variance sentinel" 0. (Trace.variance empty "a");
  checkb "fano sentinel is nan" true
    (Float.is_nan (Trace.fano_factor empty "a"));
  (* zero mean: variance is defined, the Fano ratio is not *)
  let r =
    Trace.Recorder.create ~names:[| "x" |] ~initial:[| 0. |] ~t0:0. ~t_end:2.
      ~dt:1.
  in
  let flat = Trace.Recorder.finish r in
  checkb "zero-mean fano_opt" true (Trace.fano_factor_opt flat "x" = None);
  checkb "zero-mean fano sentinel" true
    (Float.is_nan (Trace.fano_factor flat "x"))

let test_trace_csv_errors () =
  let fails s = match Trace.of_csv s with Ok _ -> false | Error _ -> true in
  checkb "empty" true (fails "");
  checkb "no species" true (fails "time\n0\n");
  checkb "bad cell" true (fails "time,x\n0,zap\n");
  checkb "wrong arity" true (fails "time,x\n0,1,2\n");
  checkb "non-uniform" true (fails "time,x\n0,1\n1,1\n3,1\n")

let prop_trace_split_concat =
  QCheck.Test.make ~name:"sub/concat round trip at any split point"
    ~count:100
    QCheck.(int_bound 8)
    (fun cut ->
      let tr = make_trace () in
      let cut = 1 + cut in
      let left = Trace.sub tr ~from:0 ~until:cut in
      let right = Trace.sub tr ~from:cut ~until:(Trace.length tr) in
      Trace.to_csv (Trace.concat left right) = Trace.to_csv tr)

let test_trace_concat_validation () =
  let tr = make_trace () in
  let left = Trace.sub tr ~from:0 ~until:5 in
  (* gluing a non-contiguous piece must fail *)
  let gap = Trace.sub tr ~from:6 ~until:10 in
  (match Trace.concat left gap with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected non-contiguous failure");
  let other =
    let r =
      Trace.Recorder.create ~names:[| "z" |] ~initial:[| 0. |] ~t0:5.
        ~t_end:9. ~dt:1.
    in
    Trace.Recorder.finish r
  in
  match Trace.concat left other with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected species mismatch failure"

let test_trace_concat_empty () =
  (* Regression: with an empty operand the contiguity check used to
     compare against the meaningless time [t0 - dt] of a non-existent
     last sample, rejecting valid concatenations (or accepting them only
     when the empty trace's nominal t0 happened to line up). An empty
     operand is the identity. *)
  let tr = make_trace () in
  let empty = Trace.sub tr ~from:4 ~until:4 in
  checki "empty sub" 0 (Trace.length empty);
  Alcotest.(check string)
    "empty left operand" (Trace.to_csv tr)
    (Trace.to_csv (Trace.concat empty tr));
  Alcotest.(check string)
    "empty right operand" (Trace.to_csv tr)
    (Trace.to_csv (Trace.concat tr empty));
  checki "both operands empty" 0 (Trace.length (Trace.concat empty empty))

(* ---- events ---- *)

let prop_events_merge_sorted =
  QCheck.Test.make ~name:"merge keeps schedules sorted by time" ~count:200
    QCheck.(pair (list (int_bound 100)) (list (int_bound 100)))
    (fun (xs, ys) ->
      let schedule l =
        Events.of_list
          (List.map (fun t -> Events.set (float_of_int t) "s" 1.) l)
      in
      let merged = Events.merge (schedule xs) (schedule ys) in
      let times =
        List.map (fun e -> e.Events.e_time) (Events.to_list merged)
      in
      List.length times = List.length xs + List.length ys
      && List.sort compare times = times)

let test_events () =
  let s =
    Events.of_list
      [ Events.set 5. "a" 1.; Events.set 1. "b" 2.; Events.set 5. "c" 3. ]
  in
  (match Events.to_list s with
  | [ e1; e2; e3 ] ->
      Alcotest.(check string) "sorted" "b" e1.Events.e_species;
      (* stable for equal times *)
      Alcotest.(check string) "stable 1" "a" e2.Events.e_species;
      Alcotest.(check string) "stable 2" "c" e3.Events.e_species
  | _ -> Alcotest.fail "wrong length");
  checkf 0. "next_time" 1. (Events.next_time s);
  checkf 0. "empty next_time" infinity (Events.next_time Events.empty);
  let merged = Events.merge s (Events.of_list [ Events.set 0.5 "z" 0. ]) in
  checkf 0. "merged head" 0.5 (Events.next_time merged)

(* ---- compiled models ---- *)

let birth_death ~k ~gamma =
  Model.make ~id:"bd"
    ~species:[ Model.species "X" 0. ]
    ~parameters:[ Model.parameter "k" k; Model.parameter "g" gamma ]
    ~reactions:
      [
        Model.reaction ~products:[ ("X", 1) ] ~rate:(Math.var "k") "birth";
        Model.reaction
          ~reactants:[ ("X", 1) ]
          ~rate:Math.(var "g" * var "X")
          "death";
      ]
    ()

let test_compile () =
  let c = Compiled.compile (birth_death ~k:10. ~gamma:0.1) in
  checki "species" 1 (Array.length c.Compiled.c_names);
  checki "reactions" 2 (Array.length c.Compiled.c_reactions);
  let a = Compiled.propensities c [| 5. |] in
  checkf 1e-12 "birth propensity" 10. a.(0);
  checkf 1e-12 "death propensity" 0.5 a.(1);
  (* parameters folded: no lookup of k at simulation time *)
  checki "birth reads nothing" 0
    (List.length c.Compiled.c_reactions.(0).Compiled.c_reads);
  Alcotest.(check (list int))
    "death reads X" [ 0 ]
    c.Compiled.c_reactions.(1).Compiled.c_reads;
  Alcotest.(check (array int))
    "birth affects death" [| 1 |]
    (Compiled.affected_reactions c 0);
  Alcotest.(check (array int))
    "death affects itself" [| 1 |]
    (Compiled.affected_reactions c 1);
  checki "species index" 0 (Compiled.species_index c "X")

let boundary_conversion_model () =
  (* A boundary input consumed by a reaction: the kinetics see it, but
     firings must never drain it (SBML boundaryCondition). *)
  Model.make ~id:"bnd"
    ~species:[ Model.species ~boundary:true "I" 30.; Model.species "P" 0. ]
    ~reactions:
      [
        Model.reaction
          ~reactants:[ ("I", 1) ]
          ~products:[ ("P", 1) ]
          ~rate:Math.(num 0.5 * var "I")
          "conv";
      ]
    ()

let test_compile_boundary_deltas () =
  let c = Compiled.compile (boundary_conversion_model ()) in
  let p = Compiled.species_index c "P" in
  Alcotest.(check (list (pair int (float 0.))))
    "boundary reactant dropped from the state-change vector" [ (p, 1.) ]
    c.Compiled.c_reactions.(0).Compiled.c_deltas

let test_compile_negative_propensity_clamped () =
  let m =
    Model.make ~id:"neg"
      ~species:[ Model.species "X" 0. ]
      ~reactions:
        [
          Model.reaction ~products:[ ("X", 1) ]
            ~rate:Math.(num 1. - var "X")
            "r";
        ]
      ()
  in
  let c = Compiled.compile m in
  let a = Compiled.propensities c [| 5. |] in
  checkf 0. "clamped to zero" 0. a.(0)

(* ---- simulation ---- *)

let final trace id = Trace.value trace id (Trace.length trace - 1)

let test_birth_death_fano () =
  (* the stationary distribution of a birth-death process is Poisson:
     Fano factor 1 *)
  let m = birth_death ~k:20. ~gamma:0.2 in
  let tr = Sim.run (Sim.config ~seed:14 ~t_end:3000. ()) m in
  let late = Trace.sub tr ~from:500 ~until:(Trace.length tr) in
  checkf 0.15 "poisson dispersion" 1. (Trace.fano_factor late "X")

let test_sim_determinism () =
  let m = birth_death ~k:10. ~gamma:0.1 in
  let cfg = Sim.config ~seed:123 ~t_end:100. () in
  let a = Sim.run cfg m and b = Sim.run cfg m in
  checkf 0. "same seed, same trace" (final a "X") (final b "X");
  let c = Sim.run (Sim.config ~seed:124 ~t_end:100. ()) m in
  checkb "different seed, different path" true (final a "X" <> final c "X")

let test_sim_birth_death_mean () =
  (* stationary mean of a birth-death process is k/gamma = 100 *)
  let m = birth_death ~k:10. ~gamma:0.1 in
  let cfg = Sim.config ~seed:42 ~t_end:2000. () in
  let tr = Sim.run cfg m in
  let late = Trace.sub tr ~from:500 ~until:(Trace.length tr) in
  checkf 5. "stationary mean" 100. (Trace.mean late "X")

let test_sim_methods_agree () =
  let m = birth_death ~k:10. ~gamma:0.1 in
  let mean algorithm seed =
    let cfg = Sim.config ~seed ~algorithm ~t_end:2000. () in
    let tr = Sim.run cfg m in
    Trace.mean (Trace.sub tr ~from:500 ~until:(Trace.length tr)) "X"
  in
  checkf 6. "direct vs next-reaction" (mean Sim.Direct 1)
    (mean Sim.Next_reaction 2)

let test_sim_events_applied () =
  let m =
    Model.make ~id:"clamp"
      ~species:[ Model.species ~boundary:true "I" 0. ]
      ~reactions:[] ()
  in
  let events =
    Events.of_list [ Events.set 10. "I" 50.; Events.set 20. "I" 5. ]
  in
  let tr, stats = Sim.run_with_stats ~events (Sim.config ~t_end:30. ()) m in
  checki "events applied" 2 stats.Sim.events_applied;
  checkf 0. "before" 0. (Trace.value tr "I" 5);
  checkf 0. "during" 50. (Trace.value tr "I" 15);
  checkf 0. "after" 5. (Trace.value tr "I" 25)

let test_sim_event_on_unknown_species () =
  (* every simulator shares one event applier: at t0 (catch-up) and
     mid-run, under each SSA algorithm and the ODE integrator *)
  let m = birth_death ~k:1. ~gamma:1. in
  List.iter
    (fun t_ev ->
      let events = Events.of_list [ Events.set t_ev "nope" 1. ] in
      let expect what run =
        match run () with
        | exception Invalid_argument _ -> ()
        | _ ->
            Alcotest.failf "%s, event at %g: expected Invalid_argument" what
              t_ev
      in
      List.iter
        (fun (what, algorithm) ->
          expect what (fun () ->
              ignore (Sim.run ~events (Sim.config ~algorithm ~t_end:5. ()) m)))
        [
          ("direct", Sim.Direct);
          ("direct full", Sim.Direct_full_recompute);
          ("next reaction", Sim.Next_reaction);
          ("tau leap", Sim.Tau_leaping { epsilon = 0.05 });
        ];
      expect "ode" (fun () ->
          ignore
            (Glc_ssa.Ode.run ~events (Glc_ssa.Ode.config ~t_end:5. ()) m)))
    [ 0.; 1. ]

let test_sim_boundary_untouched_by_reactions () =
  (* An input species read by a reaction keeps its clamped value. *)
  let m =
    Model.make ~id:"b"
      ~species:
        [ Model.species ~boundary:true "I" 30.; Model.species "P" 0. ]
      ~reactions:
        [
          Model.reaction ~products:[ ("P", 1) ] ~modifiers:[ "I" ]
            ~rate:Math.(num 0.1 * var "I")
            "prod";
        ]
      ()
  in
  let tr = Sim.run (Sim.config ~t_end:50. ()) m in
  for k = 0 to Trace.length tr - 1 do
    checkf 0. "clamped" 30. (Trace.value tr "I" k)
  done;
  checkb "P produced" true (final tr "P" > 0.)

let test_sim_boundary_reactant_all_algorithms () =
  (* Headline regression for the boundary-semantics fix: a boundary
     input species consumed by a reaction stays at its set level under
     every algorithm, while the product still accumulates (the kinetic
     law reads the input). Before the fix this model was rejected
     outright by Model.validate, and applying the stoichiometry would
     have drained I — making the stochastic algorithms disagree with the
     ODE limit, which always gave boundary species a zero derivative. *)
  let m = boundary_conversion_model () in
  List.iter
    (fun (name, algorithm) ->
      let cfg = Sim.config ~algorithm ~t_end:50. () in
      let tr = Sim.run cfg m in
      for k = 0 to Trace.length tr - 1 do
        checkf 0. (name ^ ": input held at its set level") 30.
          (Trace.value tr "I" k)
      done;
      checkb (name ^ ": product accumulates") true (final tr "P" > 0.))
    [
      ("direct", Sim.Direct);
      ("direct-full", Sim.Direct_full_recompute);
      ("next-reaction", Sim.Next_reaction);
      ("tau-leap", Sim.Tau_leaping { epsilon = 0.03 });
    ];
  let tr = Glc_ssa.Ode.run (Glc_ssa.Ode.config ~t_end:50. ()) m in
  checkf 1e-9 "ode: input held at its set level" 30. (final tr "I");
  checkb "ode: product accumulates" true (final tr "P" > 1.)

let test_sim_stats () =
  let m = birth_death ~k:5. ~gamma:0.05 in
  let _, stats = Sim.run_with_stats (Sim.config ~t_end:100. ()) m in
  checkb "fired some reactions" true (stats.Sim.reactions_fired > 100);
  checkb "final state reported" true
    (List.mem_assoc "X" stats.Sim.final_state)

let test_sim_zero_propensity () =
  (* nothing can fire; events still advance the state *)
  let m =
    Model.make ~id:"stall"
      ~species:
        [ Model.species ~boundary:true "I" 0.; Model.species "P" 0. ]
      ~reactions:
        [
          Model.reaction ~products:[ ("P", 1) ] ~modifiers:[ "I" ]
            ~rate:Math.(num 0.2 * var "I")
            "prod";
        ]
      ()
  in
  let events = Events.of_list [ Events.set 50. "I" 100. ] in
  let tr = Sim.run ~events (Sim.config ~t_end:100. ()) m in
  checkf 0. "quiet before event" 0. (Trace.value tr "P" 49);
  checkb "production after event" true (Trace.value tr "P" 99 > 0.)

let test_sim_pure_birth_next_reaction () =
  (* Regression: a reaction whose propensity reads nothing it writes must
     still get a fresh clock after firing (this hung before the fix). *)
  let m =
    Model.make ~id:"pure_birth"
      ~species:[ Model.species "X" 0. ]
      ~reactions:
        [ Model.reaction ~products:[ ("X", 1) ] ~rate:(Math.num 5.) "birth" ]
      ()
  in
  let cfg = Sim.config ~algorithm:Sim.Next_reaction ~t_end:100. () in
  let tr = Sim.run cfg m in
  checkf 40. "linear growth" 500. (final tr "X")

let test_sim_tau_leap_mean () =
  (* high-copy birth-death: the approximation must keep the mean *)
  let m = birth_death ~k:1000. ~gamma:0.1 in
  let cfg =
    Sim.config ~seed:3
      ~algorithm:(Sim.Tau_leaping { epsilon = 0.03 })
      ~t_end:500. ()
  in
  let tr = Sim.run cfg m in
  let late = Trace.sub tr ~from:250 ~until:(Trace.length tr) in
  checkf 300. "stationary mean" 10_000. (Trace.mean late "X")

let test_sim_tau_leap_determinism_and_events () =
  let m = birth_death ~k:1000. ~gamma:0.1 in
  let events = Events.of_list [ Events.set 100. "X" 0. ] in
  let cfg =
    Sim.config ~seed:8
      ~algorithm:(Sim.Tau_leaping { epsilon = 0.03 })
      ~t_end:200. ()
  in
  let a = Sim.run ~events cfg m and b = Sim.run ~events cfg m in
  checkb "deterministic" true (Trace.to_csv a = Trace.to_csv b);
  checkf 0. "event visible" 0. (Trace.value a "X" 100);
  checkb "recovers" true (final a "X" > 5_000.)

let test_sim_tau_leap_bad_epsilon () =
  let m = birth_death ~k:1. ~gamma:1. in
  let cfg =
    Sim.config ~algorithm:(Sim.Tau_leaping { epsilon = 2. }) ~t_end:5. ()
  in
  match Sim.run cfg m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_sim_tau_leap_step_rejection () =
  (* Regression for the negative-population bug. X recycles through Z
     (X -> Z fast, Z -> X slow), so X hovers near zero where a Poisson
     draw of k >= X + 1 conversions regularly overshoots the population;
     a high-propensity birth-death background B keeps a0 large enough
     that the step-selection never falls back to exact SSA stepping at
     small X. Before step rejection, the overshoot was silently clamped
     to zero — Z received k molecules while X gave up fewer, creating
     mass out of nothing — so X + Z drifted above its invariant. The
     sum is a pair of small integers stored in doubles, hence exact, and
     the clamp inflates it within a handful of leaps on any seed. *)
  let m =
    Model.make ~id:"recycle"
      ~species:
        [
          Model.species "X" 1.;
          Model.species "Z" 29.;
          Model.species "B" 1000.;
        ]
      ~reactions:
        [
          Model.reaction
            ~reactants:[ ("X", 1) ]
            ~products:[ ("Z", 1) ]
            ~rate:Math.(num 1. * var "X")
            "xz";
          Model.reaction
            ~reactants:[ ("Z", 1) ]
            ~products:[ ("X", 1) ]
            ~rate:Math.(num 0.02 * var "Z")
            "zx";
          Model.reaction ~products:[ ("B", 1) ] ~rate:(Math.num 2000.) "bb";
          Model.reaction
            ~reactants:[ ("B", 1) ]
            ~rate:Math.(num 2. * var "B")
            "bd";
        ]
      ()
  in
  let cfg =
    Sim.config ~seed:5
      ~algorithm:(Sim.Tau_leaping { epsilon = 0.5 })
      ~t_end:400. ()
  in
  let tr = Sim.run cfg m in
  for k = 0 to Trace.length tr - 1 do
    let x = Trace.value tr "X" k and z = Trace.value tr "Z" k in
    checkb "populations nonnegative" true (x >= 0. && z >= 0.);
    checkf 0. "X + Z conserved exactly" 30. (x +. z)
  done

(* ---- population ---- *)

let test_population_mean () =
  let m = birth_death ~k:10. ~gamma:0.1 in
  let cfg = Sim.config ~seed:31 ~t_end:500. () in
  let mean, cells = Glc_ssa.Population.run ~cells:20 cfg m in
  checki "twenty cells" 20 (List.length cells);
  (* cells are genuinely different trajectories *)
  let finals = List.map (fun tr -> final tr "X") cells in
  checkb "independent cells" true
    (List.length (List.sort_uniq compare finals) > 10);
  (* the averaged signal is smoother: variance well below a single cell *)
  let late tr = Trace.sub tr ~from:250 ~until:(Trace.length tr) in
  let mean_var = Trace.variance (late mean) "X" in
  let cell_var = Trace.variance (late (List.hd cells)) "X" in
  checkb "averaging reduces noise" true (mean_var < cell_var /. 4.);
  checkf 5. "mean level preserved" 100. (Trace.mean (late mean) "X")

let test_population_determinism_and_validation () =
  let m = birth_death ~k:5. ~gamma:0.1 in
  let cfg = Sim.config ~seed:9 ~t_end:100. () in
  let a, _ = Glc_ssa.Population.run ~cells:3 cfg m in
  let b, _ = Glc_ssa.Population.run ~cells:3 cfg m in
  checkb "reproducible" true (Trace.to_csv a = Trace.to_csv b);
  (match Glc_ssa.Population.run ~cells:0 cfg m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cells 0");
  match Glc_ssa.Population.mean_of [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty mean"

(* ---- ode ---- *)

let test_ode_config_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Glc_ssa.Ode.config ~step:0. ~t_end:10. ());
  expect_invalid (fun () ->
      Glc_ssa.Ode.config ~step:2. ~dt:1. ~t_end:10. ());
  expect_invalid (fun () -> Glc_ssa.Ode.config ~t_end:(-1.) ())

let test_ode_birth_death () =
  (* dx/dt = k - g x settles at k/g exactly, with no noise *)
  let m = birth_death ~k:10. ~gamma:0.1 in
  let tr = Glc_ssa.Ode.run (Glc_ssa.Ode.config ~t_end:500. ()) m in
  checkf 0.01 "deterministic steady state" 100. (final tr "X");
  (* analytic transient: x(t) = 100 (1 - e^-0.1t) *)
  checkf 0.1 "transient at t=10" (100. *. (1. -. Float.exp (-1.)))
    (Trace.value tr "X" 10)

let test_ode_events () =
  let m =
    Model.make ~id:"e"
      ~species:[ Model.species ~boundary:true "I" 0.; Model.species "P" 0. ]
      ~reactions:
        [
          Model.reaction ~products:[ ("P", 1) ] ~modifiers:[ "I" ]
            ~rate:Math.(num 0.1 * var "I")
            "prod";
        ]
      ()
  in
  let events = Events.of_list [ Events.set 50. "I" 10. ] in
  let tr = Glc_ssa.Ode.run ~events (Glc_ssa.Ode.config ~t_end:100. ()) m in
  checkf 0. "input steps sharply" 10. (Trace.value tr "I" 50);
  checkf 1e-6 "quiet before" 0. (Trace.value tr "P" 50);
  checkf 0.01 "linear accumulation after" 49.
    (Trace.value tr "P" 99)

let test_ode_steady_state () =
  let m = birth_death ~k:10. ~gamma:0.1 in
  match Glc_ssa.Ode.steady_state m with
  | [ ("X", x) ] -> checkf 0.01 "operating point" 100. x
  | _ -> Alcotest.fail "unexpected shape"

let test_sim_next_reaction_with_events () =
  let m = birth_death ~k:10. ~gamma:0.1 in
  let events = Events.of_list [ Events.set 500. "X" 0. ] in
  let cfg =
    Sim.config ~seed:11 ~algorithm:Sim.Next_reaction ~t_end:1000. ()
  in
  let tr = Sim.run ~events cfg m in
  (* the clamp resets the population; it must recover to its mean *)
  checkf 0. "reset visible" 0. (Trace.value tr "X" 500);
  checkb "recovers" true (final tr "X" > 50.)

(* ---- reaction selection (direct method) ---- *)

(* Regression: the selector used to fall through to index n-1 whenever
   rounding left the cumulative sum short of the target — firing a
   reaction with propensity 0. It must fall back to the last reaction
   with positive propensity instead. *)
let test_select_skips_zero_propensity () =
  (* target equal to the full sum: rounding-miss fallback territory *)
  checki "trailing zero is never selected" 0 (Sim.select [| 1.; 0. |] 1.0);
  checki "falls back to last positive index" 1
    (Sim.select [| 0.3; 0.3; 0. |] 0.6);
  (* zero-propensity entries are skipped in the scan itself *)
  checki "leading zero skipped" 1 (Sim.select [| 0.; 2.; 0. |] 1.5);
  checki "interior zero skipped" 2 (Sim.select [| 0.5; 0.; 0.5 |] 0.75);
  (* ordinary in-range draws are untouched by the fix *)
  checki "first reaction" 0 (Sim.select [| 1.; 1. |] 0.5);
  checki "second reaction" 1 (Sim.select [| 1.; 1. |] 1.5);
  match Sim.select [| 0.; 0. |] 0. with
  | exception Invalid_argument _ -> ()
  | i -> Alcotest.failf "all-zero vector selected reaction %d" i

let prop_select_positive_propensity =
  QCheck.Test.make ~name:"select never picks a zero-propensity reaction"
    ~count:500
    QCheck.(pair (small_list (int_bound 10)) (int_bound 999))
    (fun (raw, frac) ->
      (* propensity vector with zeros mixed in; at least one positive *)
      let a = Array.of_list (List.map float_of_int (1 :: raw)) in
      let total = Array.fold_left ( +. ) 0. a in
      let target = total *. (float_of_int frac /. 1000.) in
      a.(Sim.select a target) > 0.)

(* An event exactly at t0 must be part of the recorded initial state —
   under every algorithm. *)
let test_sim_event_at_t0_in_first_sample () =
  let m =
    Model.make ~id:"t0ev"
      ~species:
        [ Model.species ~boundary:true "I" 0.; Model.species "P" 0. ]
      ~reactions:
        [
          Model.reaction ~products:[ ("P", 1) ] ~modifiers:[ "I" ]
            ~rate:Math.(num 0.001 * var "I")
            "prod";
        ]
      ()
  in
  let events = Events.of_list [ Events.set 0. "I" 25. ] in
  List.iter
    (fun (name, algorithm) ->
      let cfg = Sim.config ~algorithm ~t_end:5. () in
      let tr = Sim.run ~events cfg m in
      checkf 0.
        (name ^ ": t0 event visible in the first sample")
        25. (Trace.value tr "I" 0))
    [
      ("direct", Sim.Direct);
      ("next-reaction", Sim.Next_reaction);
      ("tau-leap", Sim.Tau_leaping { epsilon = 0.03 });
    ]

(* ---- sparse vs full-recompute equivalence ---- *)

(* The sparse direct method's invariant: cached propensities equal fresh
   evaluations and the total propensity is summed in the same index
   order, so the RNG draw sequence — and hence the whole trajectory —
   matches the full-recompute reference byte for byte. *)

let random_mass_action_model seed =
  let st = Random.State.make [| seed |] in
  let n_s = 1 + Random.State.int st 4 in
  let name i = Printf.sprintf "S%d" i in
  let species =
    List.init n_s (fun i ->
        Model.species
          ~boundary:(i = 0 && Random.State.bool st)
          (name i)
          (float_of_int (Random.State.int st 40)))
  in
  let n_r = 1 + Random.State.int st 5 in
  let reactions =
    List.init n_r (fun j ->
        let pick () = name (Random.State.int st n_s) in
        let reactants =
          if Random.State.int st 4 = 0 then [] else [ (pick (), 1) ]
        in
        let products = [ (pick (), 1) ] in
        let k = 0.1 +. (float_of_int (Random.State.int st 20) /. 10.) in
        let rate =
          List.fold_left
            (fun acc (id, _) -> Math.(acc * var id))
            (Math.num k) reactants
        in
        Model.reaction ~reactants ~products ~rate (Printf.sprintf "r%d" j))
  in
  Model.make ~id:(Printf.sprintf "rand%d" seed) ~species ~reactions ()

let prop_sparse_direct_equivalence =
  QCheck.Test.make
    ~name:"sparse direct is byte-identical to the full-recompute reference"
    ~count:80 QCheck.small_int (fun seed ->
      let m = random_mass_action_model seed in
      let run algorithm =
        Trace.to_csv
          (Sim.run (Sim.config ~seed:(seed + 1) ~algorithm ~t_end:30. ()) m)
      in
      String.equal (run Sim.Direct) (run Sim.Direct_full_recompute))

let prop_nonnegative_populations =
  (* blanket invariant behind the tau-leap step-rejection fix: no
     algorithm may ever record a negative copy number *)
  QCheck.Test.make ~name:"populations stay nonnegative, all algorithms"
    ~count:40 QCheck.small_int (fun seed ->
      let m = random_mass_action_model seed in
      List.for_all
        (fun algorithm ->
          let tr =
            Sim.run (Sim.config ~seed:(seed + 3) ~algorithm ~t_end:30. ()) m
          in
          let ok = ref true in
          Array.iter
            (fun id ->
              for k = 0 to Trace.length tr - 1 do
                if Trace.value tr id k < 0. then ok := false
              done)
            (Trace.names tr);
          !ok)
        [
          Sim.Direct;
          Sim.Direct_full_recompute;
          Sim.Next_reaction;
          Sim.Tau_leaping { epsilon = 0.05 };
        ])

let test_sparse_equivalence_circuits () =
  (* Same check on the paper's Table-1 circuits under the virtual lab's
     input stimulus, shortened to keep the suite fast. *)
  let protocol =
    Glc_dvasim.Protocol.make ~total_time:400. ~hold_time:100. ()
  in
  List.iter
    (fun circuit ->
      let events = Glc_dvasim.Experiment.input_schedule protocol circuit in
      let model = Glc_gates.Circuit.model circuit in
      let run ?(path = Compiled.Shape) algorithm =
        let c = Compiled.compile ~path model in
        Trace.to_csv
          (fst
             (Sim.run_compiled ~events
                (Sim.config ~seed:42 ~algorithm ~t_end:400. ())
                c))
      in
      let reference = run Sim.Direct_full_recompute in
      Alcotest.(check string)
        (circuit.Glc_gates.Circuit.name ^ ": byte-identical trace")
        reference (run Sim.Direct);
      (* the shape match is an optimisation, not a semantics change:
         the AST reference path reproduces the same bytes *)
      Alcotest.(check string)
        (circuit.Glc_gates.Circuit.name ^ ": AST path byte-identical")
        reference
        (run ~path:Compiled.Ast Sim.Direct))
    (Glc_gates.Benchmarks.all ())

(* ---- compiled kinetic laws ---- *)

(* [e] as the law of a one-reaction model over species x, y, z, with
   [params] declared as model parameters, compiled on the default
   path. *)
let law_of ?(params = []) e =
  let m =
    Model.make ~id:"law"
      ~species:(List.map (fun id -> Model.species id 0.) [ "x"; "y"; "z" ])
      ~parameters:(List.map (fun (id, v) -> Model.parameter id v) params)
      ~reactions:[ Model.reaction ~products:[ ("x", 1) ] ~rate:e "r" ]
      ()
  in
  (Compiled.compile m).Compiled.c_reactions.(0).Compiled.c_law

let shape_name = function
  | Compiled.Const _ -> "const"
  | Compiled.Mass_action _ -> "mass-action"
  | Compiled.Repressor _ -> "repressor"
  | Compiled.Activator _ -> "activator"
  | Compiled.Repressor2 _ -> "repressor2"
  | Compiled.Generic _ -> "generic"

(* [Math.eval] of [e] at [state] (x, y, z) with [params] bound *)
let math_eval ?(params = []) e state =
  Math.eval
    ~lookup:(function
      | "x" -> state.(0)
      | "y" -> state.(1)
      | "z" -> state.(2)
      | id -> List.assoc id params)
    e

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let test_ir_const_fold () =
  (* (2 + 3) * x folds the addition at compile time and becomes a
     mass-action law *)
  let law = law_of Math.((num 2. + num 3.) * var "x") in
  checks "k * x" "mass-action" (shape_name law);
  checkf 0. "value" 20. (Compiled.eval_law law [| 4.; 0.; 0. |]);
  (* a law folding entirely to a constant *)
  let law = law_of Math.(num 2. ** num 5.) in
  checks "2^5" "const" (shape_name law);
  checkf 0. "folded value" 32. (Compiled.eval_law law [||]);
  (* folding is IEEE-exact, never algebraic: 0 * x survives so a NaN
     state still propagates *)
  checkb "0 * nan is nan" true
    (Float.is_nan
       (Compiled.eval_law
          (law_of Math.(num 0. * var "x"))
          [| Float.nan; 0.; 0. |]))

(* Every law of every real model matches a specialised shape: the 15
   Table-1 circuits, all 256 3-input circuits and the shipped SBML
   models. A regression in shape matching shows up as a Generic law. *)
let test_ir_no_generic_real_models () =
  let check name model =
    Array.iter
      (fun r ->
        match r.Compiled.c_law with
        | Compiled.Generic _ ->
            Alcotest.failf "%s: reaction %s has no specialised shape" name
              r.Compiled.c_id
        | _ -> ())
      (Compiled.compile model).Compiled.c_reactions
  in
  List.iter
    (fun c -> check c.Glc_gates.Circuit.name (Glc_gates.Circuit.model c))
    (Glc_gates.Benchmarks.all ());
  List.iter
    (fun code ->
      check
        (Glc_space.Fn.name_of_code ~arity:3 code)
        (Glc_gates.Circuit.model (Glc_space.Fn.circuit ~arity:3 code)))
    (Glc_space.Fn.all_codes ~arity:3);
  let dir =
    if Sys.file_exists "models" then "models" else Filename.concat ".." "models"
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sbml.xml")
  in
  checkb "SBML models found" true (files <> []);
  List.iter
    (fun f ->
      match Glc_model.Sbml.read_file (Filename.concat dir f) with
      | Ok m -> check f m
      | Error e -> Alcotest.failf "%s: %s" f e)
    files

(* A gate's production law built the way the SBOL importer builds it:
   parameters for ymin, ymax, K and n, the response
   [ymin + (ymax - ymin) * product] over one or two Hill factors. *)
let gate_law factors =
  let open Math in
  let factor i (kind, x, _, _) =
    let k = var (Printf.sprintf "K%d" i) and n = var (Printf.sprintf "n%d" i) in
    let kn = k ** n and xn = var x ** n in
    match kind with `Rep -> kn / (kn + xn) | `Act -> xn / (kn + xn)
  in
  let product =
    match List.mapi factor factors with
    | [] -> assert false
    | f :: fs -> List.fold_left Math.( * ) f fs
  in
  let params =
    List.concat
      (List.mapi
         (fun i (_, _, k, n) ->
           [ (Printf.sprintf "K%d" i, k); (Printf.sprintf "n%d" i, n) ])
         factors)
  in
  (var "ymin" + ((var "ymax" - var "ymin") * product), params)

let prop_hill_shapes_match_math_eval =
  let open QCheck in
  let pos = Gen.float_range 0.01 100. in
  let gen =
    Gen.(
      let factor kind x =
        map2 (fun k n -> (kind, x, k, n)) pos (float_range 0.5 4.)
      in
      let count = oneofl [ 0.; 1.; 3.; 15.; 250.; 1e6 ] in
      triple
        (oneof
           [
             map (fun f -> ("repressor", [ f ])) (factor `Rep "x");
             map (fun f -> ("activator", [ f ])) (factor `Act "y");
             map2
               (fun f g -> ("repressor2", [ f; g ]))
               (factor `Rep "x") (factor `Rep "z");
           ])
        (pair (float_range 0. 1.) pos)
        (triple (oneof [ count; float_range 0. 1e4 ]) count count))
  in
  let print ((name, fs), (ymin, ymax), (x, y, z)) =
    Printf.sprintf "%s %s ymin=%h ymax=%h state=(%h,%h,%h)" name
      (String.concat ","
         (List.map
            (fun (_, v, k, n) -> Printf.sprintf "%s:K=%h,n=%h" v k n)
            fs))
      ymin ymax x y z
  in
  Test.make ~name:"Hill shapes match Math.eval bits" ~count:500
    (make ~print gen)
    (fun ((name, factors), (ymin, ymax), (x, y, z)) ->
      let e, params = gate_law factors in
      let params = ("ymin", ymin) :: ("ymax", ymax) :: params in
      let law = law_of ~params e in
      let state = [| x; y; z |] in
      let expected = math_eval ~params e state in
      let got = Compiled.eval_law law state in
      if shape_name law <> name then
        Test.fail_reportf "expected shape %s, got %s" name (shape_name law)
      else if not (same_bits expected got) then
        Test.fail_reportf "Math.eval %h <> shape %h" expected got
      else true)

let test_ir_hill_shapes () =
  (* A gate's whole production law with literal constants takes one
     specialised shape — k^n folds, and the remaining
     [ymin + (ymax-ymin) * factor] is one match arm. *)
  let open Math in
  let kn = num 12. ** num 2.4 in
  let xn = var "x" ** num 2.4 in
  let gate product = num 0.03 + ((num 5. - num 0.03) * product) in
  let check name shape law =
    let compiled = law_of law in
    checks (name ^ ": shape") shape (shape_name compiled);
    List.iter
      (fun v ->
        let state = [| v; 0.; 0. |] in
        let expected = math_eval law state in
        let got = Compiled.eval_law compiled state in
        if not (same_bits expected got) then
          Alcotest.failf "%s(%g): Math.eval %h <> compiled %h" name v
            expected got)
      [ 0.; 1.; 7.3; 12.; 1e6 ]
  in
  check "repression" "repressor" (gate (kn / (kn + xn)));
  (* activation evaluates x^n twice in the AST; the shape computes it
     once yet returns the same bits *)
  check "activation" "activator" (gate (xn / (kn + xn)));
  (* the library's own hill constructors associate the numerator
     differently — no gate model is built that way — so they take the
     Generic fallback, still bit-identical *)
  check "constructor form" "generic"
    (hill_repression ~ymin:(num 0.03) ~ymax:(num 5.) ~k:(num 12.)
       ~n:(num 2.4) (var "x"))

let test_ir_activator_near_miss () =
  (* An activator factor whose two reads differ in species or exponent
     is not the activator shape: it falls back to Generic and still
     evaluates to Math.eval's bits. *)
  let open Math in
  let params = [ ("ymin", 0.03); ("ymax", 5.); ("K", 12.) ] in
  let gate f = var "ymin" + ((var "ymax" - var "ymin") * f) in
  let kn = var "K" ** num 2.4 in
  List.iter
    (fun (what, law) ->
      let compiled = law_of ~params law in
      checks (what ^ ": generic") "generic" (shape_name compiled);
      List.iter
        (fun state ->
          let expected = math_eval ~params law state in
          let got = Compiled.eval_law compiled state in
          if not (same_bits expected got) then
            Alcotest.failf "%s: Math.eval %h <> compiled %h" what expected got)
        [ [| 0.; 0.; 0. |]; [| 7.3; 20.; 0. |]; [| 1e6; 3.; 0. |] ])
    [
      ("x <> x'", gate ((var "x" ** num 2.4) / (kn + (var "y" ** num 2.4))));
      ("n <> n'", gate ((var "x" ** num 2.4) / (kn + (var "x" ** num 1.7))));
    ]

(* Random laws over every operator with awkward constants: compiled
   evaluation must return the very bits Math.eval returns, NaN and
   infinity included. Most of these laws take the Generic fallback. *)
let rec ir_math_gen depth =
  let open QCheck.Gen in
  let const =
    map2
      (fun m e -> Math.Const (float_of_int m *. (10. ** float_of_int e)))
      (int_range (-50) 50) (int_range (-2) 2)
  in
  let ident = map (fun v -> Math.Ident v) (oneofl [ "x"; "y"; "z" ]) in
  if depth = 0 then oneof [ const; ident ]
  else begin
    let sub = ir_math_gen (depth - 1) in
    frequency
      [
        (2, const);
        (2, ident);
        (1, map (fun a -> Math.Neg a) sub);
        (1, map2 (fun a b -> Math.Add (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Sub (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Mul (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Div (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Pow (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Min (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Max (a, b)) sub sub);
        (1, map (fun a -> Math.Exp a) sub);
        (1, map (fun a -> Math.Ln a) sub);
      ]
  end

let prop_ir_matches_math_eval =
  QCheck.Test.make
    ~name:"laws bit-identical to Math.eval"
    ~count:500
    QCheck.(
      pair
        (make ~print:Math.to_string (ir_math_gen 4))
        (triple (int_range (-10) 40) (int_range (-10) 40)
           (int_range (-10) 40)))
    (fun (e, (vx, vy, vz)) ->
      let state =
        [| float_of_int vx; float_of_int vy /. 4.; float_of_int vz |]
      in
      let expected = math_eval e state in
      let got = Compiled.eval_law (law_of e) state in
      if same_bits expected got then true
      else
        QCheck.Test.fail_reportf "Math.eval %h <> compiled %h on %s"
          expected got (Math.to_string e))

let prop_ir_ast_trace_equivalence =
  QCheck.Test.make
    ~name:"shape and AST traces byte-identical" ~count:80
    QCheck.small_int (fun seed ->
      let m = random_mass_action_model seed in
      let run path =
        let c = Compiled.compile ~path m in
        Trace.to_csv
          (fst
             (Sim.run_compiled (Sim.config ~seed:(seed + 1) ~t_end:30. ()) c))
      in
      String.equal (run Compiled.Shape) (run Compiled.Ast))

(* ---- ODE: oracle equivalence, early stop, allocation ---- *)

module Ode = Glc_ssa.Ode

(* bit-for-bit trace equality, NaN payloads and signed zeros included *)
let same_trace a b =
  Trace.names a = Trace.names b
  && Trace.length a = Trace.length b
  && Array.for_all
       (fun id ->
         let ca = Trace.column a id and cb = Trace.column b id in
         Array.for_all2 same_bits ca cb)
       (Trace.names a)

(* a few input steps at random times, on random species of the model *)
let random_events st (m : Model.t) ~t_end =
  let ids = Array.of_list (List.map (fun (s : Model.species) -> s.s_id) m.m_species) in
  Events.of_list
    (List.init (Random.State.int st 4) (fun _ ->
         Events.set
           (Float.round (Random.State.float st t_end *. 4.) /. 4.)
           ids.(Random.State.int st (Array.length ids))
           (float_of_int (Random.State.int st 60))))

let random_ode_case seed =
  let st = Random.State.make [| seed; 7 |] in
  let m = random_mass_action_model seed in
  let t_end = 30. in
  let step = [| 0.1; 0.25; 1.0 |].(Random.State.int st 3) in
  (m, random_events st m ~t_end, Ode.config ~step ~t_end ())

let prop_ode_oracle_random =
  QCheck.Test.make
    ~name:"ODE traces bit-identical to the allocating oracle (random models)"
    ~count:100 QCheck.small_int (fun seed ->
      let m, events, cfg = random_ode_case seed in
      let c = Compiled.compile m in
      same_trace
        (Ode.run_compiled ~events cfg c)
        (Ode_oracle.run_compiled ~events cfg c))

let test_ode_oracle_circuits () =
  let protocol =
    Glc_dvasim.Protocol.make ~total_time:400. ~hold_time:100. ()
  in
  List.iter
    (fun circuit ->
      let events = Glc_dvasim.Experiment.input_schedule protocol circuit in
      let c = Compiled.compile (Glc_gates.Circuit.model circuit) in
      List.iter
        (fun step ->
          let cfg = Ode.config ~step ~t_end:400. () in
          checkb
            (Printf.sprintf "%s at step %g: bit-identical to the oracle"
               circuit.Glc_gates.Circuit.name step)
            true
            (same_trace
               (Ode.run_compiled ~events cfg c)
               (Ode_oracle.run_compiled ~events cfg c)))
        [ 0.1; 1.0 ])
    (Glc_gates.Benchmarks.all ())

(* [run_compiled ~until] returns the full trace cut at the first sample
   where [until] holds, and [until] sees exactly the recorded samples,
   in order; [~record] keeps a subset of the columns bit for bit *)
let prop_ode_until_prefix =
  QCheck.Test.make ~name:"ODE ~until returns the prefix ending at the first hit"
    ~count:100 QCheck.small_int (fun seed ->
      let m, events, cfg = random_ode_case seed in
      let c = Compiled.compile m in
      let st = Random.State.make [| seed; 11 |] in
      let i = Random.State.int st (Array.length c.Compiled.c_names) in
      let level = float_of_int (Random.State.int st 50) in
      let t_min = float_of_int (Random.State.int st 20) in
      let holds t v = t >= t_min && v >= level in
      let full = Ode.run_compiled ~events cfg c in
      let seen = ref [] in
      let until t state =
        seen := (t, Array.copy state) :: !seen;
        holds t state.(i)
      in
      let pre = Ode.run_compiled ~events ~until cfg c in
      let col = Trace.column full c.Compiled.c_names.(i) in
      let n = Trace.length full in
      let rec first k =
        if k >= n then n
        else if holds (Trace.time full k) col.(k) then k + 1
        else first (k + 1)
      in
      let expected = first 0 in
      let seen = List.rev !seen in
      (* recording only species [i] integrates the same system: its
         column, and where the run stops, are unchanged *)
      let id = c.Compiled.c_names.(i) in
      let one =
        Ode.run_compiled ~events ~record:[| id |]
          ~until:(fun t sample -> holds t sample.(0))
          cfg c
      in
      Trace.names one = [| id |]
      && Array.for_all2 same_bits (Trace.column one id) (Trace.column pre id)
      && Trace.length pre = expected
      && same_trace pre (Trace.sub full ~from:0 ~until:expected)
      && List.length seen = expected
      && List.for_all2
           (fun k (t, state) ->
             same_bits t (Trace.time full k)
             && Array.for_all2 same_bits state
                  (Array.map (fun id -> Trace.value full id k) (Trace.names full)))
           (List.init expected Fun.id) seen)

(* words the calling domain allocates on the minor heap while running
   [f], net of the measurement's own cost *)
let minor_words f =
  let probe () =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let empty () =
    let w0 = Gc.minor_words () in
    Gc.minor_words () -. w0
  in
  ignore (probe ());
  probe () -. empty ()

(* The integrator's allocation budget on 0x69 (the 12-gate parity
   circuit, the space's largest model) and a Table-1 circuit:
   propensities are written into the caller's buffer without boxing a
   single law value, and an RK4 step at [step = dt] allocates a small
   constant (the boxed time handed to the recorder), independent of
   the reaction count. Per-step words are measured as the difference
   between a 2N-step and an N-step run, which cancels the per-run
   workspace; the recorder's N-sample columns are major-heap
   allocations and do not count. *)
let test_ode_allocation () =
  List.iter
    (fun circuit ->
      let name = circuit.Glc_gates.Circuit.name in
      let c = Compiled.compile (Glc_gates.Circuit.model circuit) in
      let state = Array.copy c.Compiled.c_initial in
      let a = Array.make (Array.length c.Compiled.c_reactions) 0. in
      let words =
        minor_words (fun () ->
            for _ = 1 to 1000 do
              Compiled.propensities_into c state a
            done)
      in
      checkb
        (Printf.sprintf "%s: propensities_into allocates 0 words (got %g)"
           name words)
        true (words = 0.);
      let steps = 1000 in
      let run n =
        minor_words (fun () ->
            ignore
              (Ode.run_compiled
                 (Ode.config ~dt:1. ~step:1. ~t_end:(float_of_int n) ())
                 c))
      in
      let per_step = (run (2 * steps) -. run steps) /. float_of_int steps in
      checkb
        (Printf.sprintf "%s: %d reactions, %g words per RK4 step (<= 16)"
           name
           (Array.length c.Compiled.c_reactions)
           per_step)
        true (per_step <= 16.))
    [ Glc_space.Fn.circuit ~arity:3 0x69; Glc_gates.Circuits.genetic_and () ]

(* ---- non-finite propensities ---- *)

(* The headline bugfix: a kinetic law evaluating to NaN used to slip
   through the [Float.max 0.] clamp (max 0. nan = nan), corrupt the
   total propensity and silently truncate the run. Both evaluation
   paths must now raise instead, naming the reaction and the state.
   Each case was verified to reproduce the silent truncation before the
   guard existed. *)
let test_non_finite_propensity_raises () =
  let cases =
    [
      ("0/0", Math.(var "X" / var "X"));
      ("ln of negative", Math.(Ln (var "X" - num 5.)));
      ("division by zero", Math.(num 1. / var "X"));
    ]
  in
  List.iter
    (fun (path_name, path) ->
      List.iter
        (fun (case, rate) ->
          let m =
            Model.make
              ~id:("nonfinite_" ^ case)
              ~species:[ Model.species "X" 0. ]
              ~reactions:[ Model.reaction ~products:[ ("X", 1) ] ~rate "bad" ]
              ()
          in
          let c = Compiled.compile ~path m in
          match Sim.run_compiled (Sim.config ~t_end:5. ()) c with
          | _ ->
              Alcotest.failf "%s/%s: expected Non_finite_propensity"
                path_name case
          | exception
              Compiled.Non_finite_propensity
                { nf_model; nf_reaction; nf_value; nf_state } ->
              checks (case ^ ": model id") ("nonfinite_" ^ case) nf_model;
              checks (case ^ ": reaction id") "bad" nf_reaction;
              checkb (case ^ ": value is non-finite") false
                (Float.is_finite nf_value);
              checkb (case ^ ": state recorded") true
                (List.mem_assoc "X" nf_state))
        cases)
    [ ("ast", Compiled.Ast); ("shape", Compiled.Shape) ]

let test_negative_propensity_still_clamps () =
  (* finite negatives stay a clamp, not an error: the law dips below
     zero but the simulation proceeds with propensity 0 *)
  List.iter
    (fun path ->
      let m =
        Model.make ~id:"negclamp"
          ~species:[ Model.species "X" 0. ]
          ~reactions:
            [
              Model.reaction ~products:[ ("X", 1) ]
                ~rate:Math.(var "X" - num 5.)
                "sink";
            ]
          ()
      in
      let c = Compiled.compile ~path m in
      let a = Compiled.propensities c [| 0. |] in
      checkf 0. "clamped to zero" 0. a.(0))
    [ Compiled.Ast; Compiled.Shape ]

(* ---- recorder grid property ---- *)

let prop_recorder_grid =
  QCheck.Test.make
    ~name:"recorder: finish yields the full grid, each point holding the \
           latest observation at or before it" ~count:300
    QCheck.(
      pair (int_range 1 20) (small_list (pair (int_bound 40) (int_bound 99))))
    (fun (t_end_i, steps) ->
      let t_end = float_of_int t_end_i in
      let r =
        Trace.Recorder.create ~names:[| "x" |] ~initial:[| -1. |] ~t0:0.
          ~t_end ~dt:1.
      in
      (* nondecreasing observation times in tenths, some past t_end;
         [obs] is newest-first, seeded with the initial state at t0 *)
      let t = ref 0. in
      let obs = ref [ (0., -1.) ] in
      List.iter
        (fun (dt10, v) ->
          t := !t +. (float_of_int dt10 /. 10.);
          let v = float_of_int v in
          Trace.Recorder.observe r !t [| v |];
          obs := (!t, v) :: !obs)
        steps;
      let tr = Trace.Recorder.finish r in
      let samples = t_end_i + 1 in
      Trace.length tr = samples
      && List.for_all
           (fun k ->
             let tk = float_of_int k in
             let expected =
               (* newest-first scan: first entry at or before the grid
                  point is the latest one *)
               List.find_opt (fun (ti, _) -> ti <= tk) !obs
               |> Option.fold ~none:(-1.) ~some:snd
             in
             Trace.value tr "x" k = expected)
           (List.init samples Fun.id))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "glc_ssa"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick
            test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "float ranges" `Quick test_rng_float_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_float_mean;
          Alcotest.test_case "int" `Quick test_rng_int;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "gaussian" `Quick test_rng_gaussian;
          Alcotest.test_case "poisson" `Quick test_rng_poisson;
        ]
        @ qc
            [
              prop_rng_split_deterministic;
              prop_rng_split_no_collisions;
              prop_rng_int_range;
              prop_rng_int_uniform;
              prop_rng_poisson_chi_square;
            ] );
      ( "indexed_heap",
        Alcotest.test_case "basic" `Quick test_heap_basic
        :: qc [ prop_heap_random_ops ] );
      ( "trace",
        [
          Alcotest.test_case "zero-order hold" `Quick test_recorder_hold;
          Alcotest.test_case "jump on grid point" `Quick
            test_recorder_exact_grid_point;
          Alcotest.test_case "time goes backwards" `Quick
            test_recorder_backwards;
          Alcotest.test_case "accessors" `Quick test_trace_accessors;
          Alcotest.test_case "statistics" `Quick test_trace_statistics;
          Alcotest.test_case "csv round trip" `Quick test_trace_csv_roundtrip;
          Alcotest.test_case "csv errors" `Quick test_trace_csv_errors;
          Alcotest.test_case "concat validation" `Quick
            test_trace_concat_validation;
          Alcotest.test_case "concat empty operands" `Quick
            test_trace_concat_empty;
          Alcotest.test_case "empty-trace statistics" `Quick
            test_trace_empty_statistics;
        ]
        @ qc [ prop_trace_split_concat; prop_recorder_grid ] );
      ( "events",
        Alcotest.test_case "schedules" `Quick test_events
        :: qc [ prop_events_merge_sorted ] );
      ( "compiled",
        [
          Alcotest.test_case "compile" `Quick test_compile;
          Alcotest.test_case "boundary deltas dropped" `Quick
            test_compile_boundary_deltas;
          Alcotest.test_case "negative propensity clamped" `Quick
            test_compile_negative_propensity_clamped;
          Alcotest.test_case "non-finite propensity raises, both paths"
            `Quick test_non_finite_propensity_raises;
          Alcotest.test_case "finite negatives still clamp, both paths"
            `Quick test_negative_propensity_still_clamps;
        ] );
      ( "ir",
        [
          Alcotest.test_case "constant folding" `Quick test_ir_const_fold;
          Alcotest.test_case "real models have no Generic law"
            `Quick test_ir_no_generic_real_models;
          Alcotest.test_case "Hill responses fuse to one instruction"
            `Quick test_ir_hill_shapes;
          Alcotest.test_case "activator near-miss is Generic"
            `Quick test_ir_activator_near_miss;
        ]
        @ qc
            [
              prop_ir_matches_math_eval;
              prop_ir_ast_trace_equivalence;
              prop_hill_shapes_match_math_eval;
            ] );
      ( "simulation",
        [
          Alcotest.test_case "determinism" `Quick test_sim_determinism;
          Alcotest.test_case "birth-death Fano factor" `Slow
            test_birth_death_fano;
          Alcotest.test_case "birth-death mean" `Slow
            test_sim_birth_death_mean;
          Alcotest.test_case "methods agree" `Slow test_sim_methods_agree;
          Alcotest.test_case "events applied" `Quick test_sim_events_applied;
          Alcotest.test_case "unknown event species" `Quick
            test_sim_event_on_unknown_species;
          Alcotest.test_case "boundary clamped" `Quick
            test_sim_boundary_untouched_by_reactions;
          Alcotest.test_case "boundary reactant, all algorithms" `Quick
            test_sim_boundary_reactant_all_algorithms;
          Alcotest.test_case "sparse equivalence on Table-1 circuits"
            `Slow test_sparse_equivalence_circuits;
          Alcotest.test_case "stats" `Quick test_sim_stats;
          Alcotest.test_case "zero propensity stall" `Quick
            test_sim_zero_propensity;
          Alcotest.test_case "next-reaction with events" `Quick
            test_sim_next_reaction_with_events;
          Alcotest.test_case "pure birth via next-reaction" `Quick
            test_sim_pure_birth_next_reaction;
          Alcotest.test_case "tau-leap mean" `Quick test_sim_tau_leap_mean;
          Alcotest.test_case "tau-leap determinism and events" `Quick
            test_sim_tau_leap_determinism_and_events;
          Alcotest.test_case "tau-leap bad epsilon" `Quick
            test_sim_tau_leap_bad_epsilon;
          Alcotest.test_case "tau-leap step rejection" `Slow
            test_sim_tau_leap_step_rejection;
          Alcotest.test_case "select skips zero propensity" `Quick
            test_select_skips_zero_propensity;
          Alcotest.test_case "event at t0 in first sample" `Quick
            test_sim_event_at_t0_in_first_sample;
        ]
        @ qc
            [
              prop_select_positive_propensity;
              prop_sparse_direct_equivalence;
              prop_nonnegative_populations;
            ]
      );
      ( "population",
        [
          Alcotest.test_case "mean of cells" `Slow test_population_mean;
          Alcotest.test_case "determinism and validation" `Quick
            test_population_determinism_and_validation;
        ] );
      ( "ode",
        [
          Alcotest.test_case "config validation" `Quick
            test_ode_config_validation;
          Alcotest.test_case "birth-death analytic" `Quick
            test_ode_birth_death;
          Alcotest.test_case "events" `Quick test_ode_events;
          Alcotest.test_case "steady state" `Quick test_ode_steady_state;
          Alcotest.test_case "oracle on Table-1 circuits" `Quick
            test_ode_oracle_circuits;
          Alcotest.test_case "allocation budget" `Quick test_ode_allocation;
        ]
        @ qc [ prop_ode_oracle_random; prop_ode_until_prefix ] );
    ]
