(* Plumbing shared by the three workloads: clocks, allocation counts,
   spans, quantiles, memory, failure tallies and file helpers. *)

let now = Unix.gettimeofday

(* Worker domains, pool sizes and client connections never exceed
   this: the benchmark measures the hardware it is given, not
   oversubscription. *)
let nproc = Domain.recommended_domain_count ()

(* Words allocated by the calling domain: the exact minor-heap count
   plus direct major-heap allocations. Promotions cancel out, so the
   figure depends only on the code that ran, never on when a minor
   collection happened — which is what lets allocation counts repeat
   exactly from run to run. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* {2 Statistics} *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> invalid_arg "quantile of no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

(* {2 Spans}

   The traced runs wrap every call into a layer in a span recorded by
   the benchmark itself, so the program carries no tracing of its own
   for this. Spans are flat: each is a direct child of the traced pass,
   which is what makes their sum comparable with its wall time. *)

type span = {
  s_name : string;
  s_start : float;  (** seconds since the traced pass began *)
  s_dur : float;
  s_words : float;  (** words the calling domain allocated inside *)
}

type trace = { on : bool; epoch : float; mutable spans : span list }

(* [trace ~on:false ()] runs the same calls without recording: the
   untraced twin of a traced pass, for the overhead ratio. *)
let trace ?(on = true) () = { on; epoch = now (); spans = [] }

let span tr name f =
  if not tr.on then f () else
  let w0 = alloc_words () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    let w1 = alloc_words () in
    tr.spans <-
      { s_name = name; s_start = t0 -. tr.epoch; s_dur = t1 -. t0; s_words = w1 -. w0 }
      :: tr.spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let spans_named tr name = List.filter (fun s -> s.s_name = name) tr.spans
let durations tr name = List.map (fun s -> s.s_dur) (spans_named tr name)
let total tr name = sum (durations tr name)

(* Mean words per call; deterministic because every call is. *)
let words_per_call tr name =
  match spans_named tr name with
  | [] -> 0.
  | ss -> sum (List.map (fun s -> s.s_words) ss) /. float_of_int (List.length ss)

let covered tr = sum (List.map (fun s -> s.s_dur) tr.spans)

let write_spans tr path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"name\":%S,\"start\":%.6f,\"dur\":%.6f,\"words\":%.0f}\n"
        s.s_name s.s_start s.s_dur s.s_words)
    (List.rev tr.spans);
  close_out oc

(* The coverage metrics every traced workload reports: summed spans
   over the traced wall time, and the unattributed remainder. *)
let coverage_metrics tr ~traced_wall =
  let cov = covered tr in
  [
    ("bench.span_coverage", cov /. traced_wall);
    ("bench.unattributed_s", traced_wall -. cov);
  ]

(* {2 Failures}

   Every operation attempted and every output check counts toward
   [attempted]; a failed operation or a mismatching output counts
   toward [failed]. A mismatch also makes the run incorrect. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;
}

let tally = { attempted = 0; failed = 0; mismatches = [] }

let ops ~attempted ~failed =
  tally.attempted <- tally.attempted + attempted;
  tally.failed <- tally.failed + failed

let check what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    tally.mismatches <- what :: tally.mismatches;
    Printf.eprintf "perfbench: output check failed: %s\n%!" what
  end

let get_ok what = function
  | Ok x -> x
  | Error m -> failwith (Printf.sprintf "%s: %s" what m)

(* {2 Memory} *)

(* Peak resident set of a process, from Linux's /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> scan ())
      in
      scan ())

(* {2 Files} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* A fresh, empty directory. *)
let fresh_dir path =
  rm_rf path;
  Glc_campaign.Store.mkdir_p path;
  path
