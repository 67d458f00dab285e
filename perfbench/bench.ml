(* The end-to-end benchmark of the verification pipeline.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--glcv PATH]

   Runs from the root of a checkout. With --trace 0 it measures the
   workload untraced for about S seconds and prints every end-to-end
   metric BENCHMARK.json names; with --trace 1 it runs the traced
   decomposition of the same workload and prints every per-layer metric
   (0 for a layer the traced pass never calls directly — see
   PREDICTIONS.md). Outputs are checked either way. The last line of
   stdout is the result object; the line before it records
   provenance. *)

module Json = Glc_core.Report.Json

let workloads =
  [
    ("atlas-sweep", (Atlas_sweep.untraced, Atlas_sweep.traced));
    ("ensemble-0x17", (Ensemble_0x17.untraced, Ensemble_0x17.traced));
    ("serve-mixed", (Serve_mixed.untraced, Serve_mixed.traced));
  ]

(* Metric names and units, read from BENCHMARK.json so the benchmark
   and its declaration cannot drift apart. *)
let declared section =
  let doc = Common.get_ok "BENCHMARK.json" (Json.parse (Common.read_file "BENCHMARK.json")) in
  let str o k = Option.get (Option.bind (Json.member o k) Json.to_str) in
  Option.get (Option.bind (Json.member doc section) Json.to_list)
  |> List.map (fun m -> (str m "name", str m "unit"))

(* The commit when the checkout is a git work tree, and a digest of the
   program's sources either way. *)
let commit () =
  let read path = try Some (String.trim (Common.read_file path)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      match Scanf.sscanf_opt head "ref: %s" Fun.id with
      | None -> head
      | Some ref_ -> Option.value ~default:"unknown" (read (Filename.concat ".git" ref_)))

let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun n ->
           let p = Filename.concat dir n in
           if Sys.is_directory p then files p else [ p ])
  in
  files "lib" @ files "bin"
  |> List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith (Printf.sprintf "non-finite metric value %g" x)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 and traced = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_int seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int traced, "0|1 untraced end-to-end or traced per-layer run");
      ("--glcv", Arg.Set_string Serve_mixed.glcv, "PATH the glcv executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let untraced, traced_run =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("perfbench: --workload must be one of "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  let section = if !traced = 1 then "per_layer" else "end_to_end" in
  let names = declared section in
  let work = Common.fresh_dir (Filename.concat ".bench_run" !workload) in
  let t0 = Common.now () in
  let measured, info =
    if !traced = 1 then traced_run ~work ~seed:!seed
    else untraced ~work ~seed:!seed ~seconds:(float_of_int !seconds)
  in
  let elapsed = Common.now () -. t0 in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k names) then
        failwith (Printf.sprintf "metric %s is not declared in BENCHMARK.json" k))
    measured;
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name measured with
        | Some v -> (name, v, unit)
        | None when !traced = 1 -> (name, 0., unit) (* no direct call into the layer *)
        | None -> failwith ("workload did not measure " ^ name))
      names
  in
  let tally = Common.tally in
  Printf.printf
    "{\"provenance\":{\"workload\":%S,\"seed\":%d,\"seconds\":%d,\"trace\":%d,\"nproc\":%d,\"ocaml\":%S,\"commit\":%S,\"source_md5\":%S,\"elapsed_s\":%s},\"fail_ratio\":%s,%s}\n"
    !workload !seed !seconds !traced Common.nproc Sys.ocaml_version (commit ())
    (source_digest ()) (number elapsed)
    (number (float_of_int tally.failed /. float_of_int (max 1 tally.attempted)))
    (String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%S:%d" k n) info));
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (tally.mismatches = [] && tally.failed = 0)
    tally.attempted tally.failed
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (number v) unit)
          metrics))
