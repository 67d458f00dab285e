(* Workload serve-mixed: `glcv serve` in its own process and one
   closed-loop client (one connection at a time) submitting a seeded
   stream of Table-1 circuits. Three in five submissions carry fresh
   coordinates (a new FOV_UD), so admission lint, certify-first
   execution, the store put and the fsync'd journal all run; the rest
   repeat coordinates that already have an answer and hit dedup.
   The only workload with the read/write split of a live service. *)

open Common
module Client = Glc_serve.Client
module W = Glc_serve.Protocol_wire
module Jobstate = Glc_serve.Jobstate
module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Journal = Glc_campaign.Journal
module Runner = Glc_campaign.Runner
module Pool = Glc_engine.Pool
module Cache = Glc_engine.Cache
module Certificate = Glc_symbolic.Certificate
module Lint = Glc_lint.Lint
module Protocol = Glc_dvasim.Protocol
module Metrics = Glc_obs.Metrics

(* {2 The daemon} *)

let glcv = ref ".bench_build/default/bin/glcv.exe"

(* Daemons still running; stopped on every exit path. *)
let live_daemons : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

type daemon = { pid : int; client : Client.t }

(* Spawns a daemon on a fresh state directory and returns it once
   /health answers, with the boot time. Paths stay relative to the
   working directory, which keeps the socket path short. *)
let boot ~dir =
  let dir = fresh_dir dir in
  let socket = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process !glcv
      [| !glcv; "serve"; "--socket"; socket; "--state"; Filename.concat dir "state";
         "--jobs"; string_of_int nproc |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  live_daemons := pid :: !live_daemons;
  let client = Client.connect ~socket in
  let rec wait () =
    match Client.health client with
    | Ok { W.status = 200; _ } -> now () -. t0
    | _ ->
        if now () -. t0 > 60. then failwith "glcv serve did not answer /health within 60 s";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "glcv serve exited during boot (see daemon.log)");
        Unix.sleepf 0.0002;
        wait ()
  in
  let dt = wait () in
  ({ pid; client }, dt)

let stop d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  check "glcv serve shut down cleanly" (status = Unix.WEXITED 0)

(* {2 The stream}

   Blocks of 25 submissions, shuffled by the seed: each of the 15
   Table-1 circuits once with a fresh FOV_UD, and 10 repeats of
   coordinates submitted earlier in the stream. Every block has the
   same mix, so the latency distribution does not drift with the
   seed. Repeats are answered in well under a millisecond and fresh
   certified jobs in about fourteen, so the repeat fraction is 2/5 rather
   than 1/2: that puts the median inside the fresh mode instead of on
   the gap between the two modes, where it would jump from run to
   run. *)

type sub = { circuit : string; fov : float; fresh : bool }

let circuits = Glc_gates.Benchmarks.names ()
let block_fresh = List.length circuits
let block_repeats = 10

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A fresh FOV_UD: distinct for every fresh submission of a stream
   (an additive golden-ratio sequence never repeats) and inside the
   analyser's meaningful range. *)
let fov_of ~offset k =
  0.10 +. (0.30 *. Float.rem (offset +. (float_of_int k *. 0.6180339887498949)) 1.)

let block = block_fresh + block_repeats

let plan ~seed n =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let offset = Random.State.float rng 1. in
  let names = Array.of_list circuits in
  let out = Array.make n { circuit = ""; fov = 0.; fresh = true } in
  (* fresh coordinates issued so far, the pool repeats draw from *)
  let issued = Array.make n out.(0) and n_issued = ref 0 in
  for b = 0 to (n - 1) / block do
    let slots = Array.append (Array.make block_fresh true) (Array.make block_repeats false) in
    shuffle rng slots;
    (* the very first submission of a stream must be fresh *)
    if b = 0 && not slots.(0) then begin
      let i = ref 0 in
      while not slots.(!i) do incr i done;
      slots.(!i) <- false;
      slots.(0) <- true
    end;
    shuffle rng names;
    let next_name = ref 0 in
    Array.iteri
      (fun k fresh ->
        let i = (b * block) + k in
        if i < n then
          out.(i) <-
            (if fresh then begin
               let s = { circuit = names.(!next_name); fov = fov_of ~offset !n_issued; fresh = true } in
               incr next_name;
               issued.(!n_issued) <- s;
               incr n_issued;
               s
             end
             else { (issued.(Random.State.int rng !n_issued)) with fresh = false }))
      slots
  done;
  out

let job_of s =
  get_ok "Jobstate.job" (Jobstate.job ~circuit:s.circuit ~fov_ud:s.fov ())

(* {2 The client loop} *)

type outcome = {
  o_sub : sub;
  o_latency : float;  (** submit start to result bytes received *)
  o_polls : int;  (** result requests made *)
  o_doc : string option;  (** the result document, when one came back *)
}

(* Polls the result on the client's own cadence — a tenth of the time
   waited so far, between 0.5 and 10 ms — rather than with
   Client.result ~wait, whose fixed 200 ms sleep would set the
   latency. *)
let submit_and_wait tr d s =
  let t0 = now () in
  let reply =
    span tr "serve.submit" (fun () -> Client.submit ~fov_ud:s.fov d.client ~circuit:s.circuit)
  in
  let want_id = Grid.job_id (job_of s) in
  let result () =
    let rec poll polls =
      match Client.result d.client ~id:want_id with
      | Ok { W.status = 409; _ } ->
          Unix.sleepf (Float.min 0.010 (Float.max 0.0005 (0.1 *. (now () -. t0))));
          poll (polls + 1)
      | Ok { W.status = 200; resp_body; _ } -> (polls + 1, Some resp_body)
      | Ok _ | Error _ -> (polls + 1, None)
    in
    span tr "serve.result_wait" (fun () -> poll 0)
  in
  let polls, doc =
    match reply with
    | Ok ({ W.status = 200 | 202; _ } as r) ->
        check "submit reply names the submitted coordinates"
          (Client.job_id_of_response r = Some want_id);
        check "dedup flag matches the plan"
          (r.W.status = if s.fresh then 202 else 200);
        result ()
    | Ok _ | Error _ -> (0, None)
  in
  { o_sub = s; o_latency = now () -. t0; o_polls = polls; o_doc = doc }

(* Runs [stream] closed-loop until it is exhausted or, at the end of
   a block, [until] has passed: whole blocks keep the mix of every run
   identical. *)
let drive ?(until = infinity) tr d stream =
  let out = ref [] and i = ref 0 in
  while !i < Array.length stream && (!i mod block <> 0 || now () < until) do
    out := submit_and_wait tr d stream.(!i) :: !out;
    incr i
  done;
  List.rev !out

let metric_value text name =
  List.find_map
    (fun line -> Scanf.sscanf_opt line "%s %d" (fun n v -> if n = name then Some v else None) |> Option.join)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0

(* Checks the replies of one daemon: a dedup result equals the first
   reply for its coordinates, and the daemon's own counters equal the
   stream's planned submissions and repeats exactly. Returns the first
   reply per coordinate (for check_against_runner), the dedup hits and
   the dedup ratio. *)
let check_outcomes d outcomes =
  let failed = List.length (List.filter (fun o -> o.o_doc = None) outcomes) in
  ops ~attempted:(List.length outcomes) ~failed;
  let first = Hashtbl.create 256 in
  List.iter
    (fun o ->
      match o.o_doc with
      | None -> ()
      | Some doc -> (
          let key = (o.o_sub.circuit, o.o_sub.fov) in
          match Hashtbl.find_opt first key with
          | None -> Hashtbl.replace first key doc
          | Some doc0 -> check "dedup reply equals the first reply" (doc = doc0)))
    outcomes;
  let sent = List.length outcomes in
  let repeats = List.length (List.filter (fun o -> not o.o_sub.fresh) outcomes) in
  let text = get_ok "GET /metrics" (Client.metrics d.client) in
  let hits = metric_value text "serve_dedup_hits" in
  check "serve.jobs_submitted equals the submissions sent"
    (metric_value text "serve_jobs_submitted" = sent);
  check "serve.dedup_hits equals the planned repeats" (hits = repeats);
  (first, hits, float_of_int hits /. float_of_int sent)

(* The first reply per coordinate, in a canonical order. *)
let documents first = Hashtbl.fold (fun k doc acc -> (k, doc) :: acc) first [] |> List.sort compare

(* Every first reply must equal Runner.run_job's bytes for its
   coordinates, computed here in-process once the daemon has stopped. *)
let check_against_runner docs =
  let spec_of job =
    Jobstate.spec_for ~seed:42 ~total_time:Protocol.default.Protocol.total_time
      ~hold_time:Protocol.default.Protocol.hold_time job
  in
  Pool.with_pool ~jobs:nproc (fun pool ->
      let cache = Cache.create () in
      List.iter
        (fun ((circuit, fov), doc) ->
          let job = job_of { circuit; fov; fresh = true } in
          check
            (Printf.sprintf "%s fov_ud=%g: reply equals Runner.run_job's bytes" circuit fov)
            (Runner.run_job ~pool ~cache (spec_of job) job = doc))
        docs)

let ms xs = List.map (fun x -> 1000. *. x) xs

let setup_boots = 9

(* Boots [setup_boots] daemons; all but the last are stopped. *)
let boot_several ~work =
  let rec go k acc =
    let d, dt = boot ~dir:(Filename.concat work (Printf.sprintf "daemon-%d" k)) in
    if k + 1 = setup_boots then (d, dt :: acc)
    else begin
      stop d;
      go (k + 1) (dt :: acc)
    end
  in
  go 0 []

let untraced ~work ~seed ~seconds =
  let d, boots = boot_several ~work in
  (* far more than a closed loop can send in [seconds] *)
  let stream = plan ~seed (block * int_of_float (40. *. seconds)) in
  let t0 = now () in
  let outcomes = drive ~until:(t0 +. seconds) (trace ~on:false ()) d stream in
  let wall = now () -. t0 in
  let rss = peak_rss_mb (string_of_int d.pid) in
  let first, _, _ = check_outcomes d outcomes in
  stop d;
  check_against_runner (documents first);
  let lat = ms (List.map (fun o -> o.o_latency) outcomes) in
  ( [
      ("setup_s", median boots);
      ("latency_p50_ms", median lat);
      ("latency_p90_ms", quantile 0.9 lat);
      ("jobs_per_s", float_of_int (List.length outcomes) /. wall);
      ("peak_rss_mb", rss);
    ],
    [ ("samples", List.length lat);
      ("samples_beyond_p90", List.length (List.filter (fun x -> x > quantile 0.9 lat) lat)) ] )

(* The traced run replays a fixed-length prefix of the stream, so its
   counts repeat exactly; untraced replays, each on a fresh daemon,
   give the wall time the trace overhead is measured against. *)
let traced_submissions = 250

let traced ~work ~seed =
  let stream = plan ~seed traced_submissions in
  (* one checked replay on a fresh daemon, left running *)
  let replay tr name =
    let d, _ = boot ~dir:(Filename.concat work name) in
    let t0 = now () in
    let outcomes = drive tr d stream in
    let wall = now () -. t0 in
    let first, hits, ratio = check_outcomes d outcomes in
    (d, wall, outcomes, documents first, hits, ratio)
  in
  let untraced name =
    let d, wall, _, docs, _, _ = replay (trace ~on:false ()) name in
    stop d;
    (wall, docs)
  in
  (* untraced, traced, traced, untraced: the machine's drift over the
     four replays cancels out of the overhead ratio *)
  let u1, docs = untraced "untraced-1" in
  let tr = trace () in
  let t_start = now () in
  let d, stream_wall, outcomes, traced_docs, hits, dedup_ratio = replay tr "traced" in
  (* the layers a fresh submission runs, called in-process per Table-1
     circuit, and the persistence calls on a store owned here *)
  let live = Metrics.create () in
  let protocol = Protocol.default in
  List.iter
    (fun name ->
      let c = span tr "gates.assembly" (fun () -> get_ok "Runner.resolve" (Runner.resolve name)) in
      ignore (span tr "lint.circuit" (fun () -> Lint.circuit ~protocol c));
      ignore (span tr "symbolic.certify" (fun () -> Certificate.certify ~metrics:live ~protocol c)))
    circuits;
  let dir = fresh_dir (Filename.concat work "store") in
  let store = span tr "campaign.prepare" (fun () -> get_ok "Store.create" (Store.create ~dir "{}")) in
  let journal = Journal.open_ ~dir in
  List.iteri
    (fun i (_, doc) ->
      let id = Printf.sprintf "job-%04d" i in
      span tr "campaign.journal_append" (fun () -> Journal.append journal (Journal.Started id));
      span tr "campaign.store_put" (fun () -> Store.put store ~id doc);
      span tr "campaign.journal_append" (fun () -> Journal.append journal (Journal.Done id)))
    traced_docs;
  Journal.close journal;
  let traced_wall = now () -. t_start in
  stop d;
  let d2, t2, _, docs2, _, _ = replay (trace ()) "traced-2" in
  stop d2;
  let u2, docs3 = untraced "untraced-2" in
  check "every replay returns the same documents"
    (traced_docs = docs && docs2 = docs && docs3 = docs);
  check_against_runner docs;
  write_spans tr (Filename.concat work "spans.jsonl");
  let certify = durations tr "symbolic.certify" in
  let med_ms name = 1000. *. median (durations tr name) in
  ( [
      ("serve.submit_ms", med_ms "serve.submit");
      ("serve.result_wait_ms", med_ms "serve.result_wait");
      ("serve.polls_per_job",
        mean (List.map (fun o -> float_of_int o.o_polls) outcomes));
      ("serve.dedup_ratio", dedup_ratio);
      ("serve.dedup_hits", float_of_int hits);
      ("gates.assembly_s", total tr "gates.assembly");
      ("gates.assembly_alloc_words", words_per_call tr "gates.assembly");
      ("lint.circuit_ms", med_ms "lint.circuit");
      ("lint.circuit_alloc_words", words_per_call tr "lint.circuit");
      ("symbolic.certify_p50_s", median certify);
      ("symbolic.certify_max_s", List.fold_left Float.max 0. certify);
      ("symbolic.certify_alloc_words", words_per_call tr "symbolic.certify");
      ("symbolic.fixpoint_iterations",
        float_of_int (Metrics.Counter.value (Metrics.counter live "symbolic.fixpoint_iterations")));
      ("campaign.store_put_s", total tr "campaign.store_put");
      ("campaign.store_put_ms", med_ms "campaign.store_put");
      ("campaign.store_put_alloc_words", words_per_call tr "campaign.store_put");
      ("campaign.journal_append_s", total tr "campaign.journal_append");
      ("campaign.journal_append_ms", med_ms "campaign.journal_append");
      ("campaign.journal_append_alloc_words", words_per_call tr "campaign.journal_append");
    ]
    (* the in-process calls have no untraced twin: the overhead is the
       traced replays' wall over the untraced replays' *)
    @ ("bench.trace_overhead", (stream_wall +. t2) /. (u1 +. u2))
      :: coverage_metrics tr ~traced_wall,
    [ ("spans", List.length tr.spans); ("submissions", List.length outcomes) ] )
