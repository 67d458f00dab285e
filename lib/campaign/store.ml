module Json = Glc_json

type t = { dir : string }

let manifest_name = "MANIFEST.json"
let results_subdir = "results"

let mkdir_p dir =
  let rec go dir =
    if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
    then begin
      go (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Temp-file + rename in the destination directory: the visible path
   either holds the complete document or nothing. The temp name embeds
   the pid so two processes writing the same id cannot interleave. *)
let atomic_write path content =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length content in
      let written = ref 0 in
      while !written < n do
        written :=
          !written
          + Unix.write_substring fd content !written (n - !written)
      done;
      Unix.fsync fd);
  Unix.rename tmp path

module Lock = struct
  type lock = { l_path : string; mutable l_released : bool }

  let path ~dir = Filename.concat dir "LOCK"

  (* O_EXCL creation: exactly one process can create the file. The pid
     inside is what makes staleness decidable after a kill -9. *)
  let try_create path =
    match
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
    with
    | fd ->
        let body = string_of_int (Unix.getpid ()) ^ "\n" in
        ignore (Unix.write_substring fd body 0 (String.length body));
        Unix.close fd;
        true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false

  let holder path =
    match read_file path with
    | exception _ -> None
    | text -> int_of_string_opt (String.trim text)

  (* A pid is live when signal 0 can be delivered (EPERM still means
     the process exists). ESRCH — or an unparseable lock body — means
     the holder is gone and the lock is stale. *)
  let pid_live pid =
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
    | exception Unix.Unix_error (_, _, _) -> false

  let acquire ~dir =
    mkdir_p dir;
    let p = path ~dir in
    let taken () = Ok { l_path = p; l_released = false } in
    if try_create p then taken ()
    else begin
      match holder p with
      | Some pid when pid_live pid ->
          Error
            (Printf.sprintf
               "%s is locked by running process %d — only one process may \
                drain a campaign/serve directory at a time"
               dir pid)
      | Some _ | None ->
          (* stale: remove and retry once; losing the re-creation race
             to another process is a genuine "busy" again *)
          (try Sys.remove p with Sys_error _ -> ());
          if try_create p then taken ()
          else
            Error
              (Printf.sprintf
                 "%s: lost the lock acquisition race after removing a \
                  stale lock — another process is draining this directory"
                 dir)
    end

  let release l =
    if not l.l_released then begin
      l.l_released <- true;
      try Sys.remove l.l_path with Sys_error _ -> ()
    end

  let with_lock ~dir f =
    match acquire ~dir with
    | Error _ as e -> e
    | Ok l -> Ok (Fun.protect ~finally:(fun () -> release l) f)
end

let results_dir t = Filename.concat t.dir results_subdir
let manifest_path dir = Filename.concat dir manifest_name

let create ~dir manifest_json =
  if Sys.file_exists (manifest_path dir) then
    Error
      (Printf.sprintf
         "%s already holds a campaign manifest — resume it instead" dir)
  else begin
    mkdir_p (Filename.concat dir results_subdir);
    atomic_write (manifest_path dir) manifest_json;
    Ok { dir }
  end

let load ~dir =
  let path = manifest_path dir in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no campaign manifest found" path)
  else begin
    mkdir_p (Filename.concat dir results_subdir);
    Ok ({ dir }, read_file path)
  end

let dir t = t.dir
let result_path t ~id = Filename.concat (results_dir t) (id ^ ".json")

let put t ~id json = atomic_write (result_path t ~id) json

let get t ~id =
  let path = result_path t ~id in
  if not (Sys.file_exists path) then None
  else
    (* a result counts only when it parses: half-written or corrupted
       files (which the atomic rename should already preclude) are
       treated as absent, so resume re-runs the job *)
    let text = read_file path in
    match Json.parse text with Ok _ -> Some text | Error _ -> None

let mem t ~id = Option.is_some (get t ~id)

let completed t =
  let rdir = results_dir t in
  if not (Sys.file_exists rdir) then []
  else
    Sys.readdir rdir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun name ->
           match Filename.chop_suffix_opt ~suffix:".json" name with
           | Some id when mem t ~id -> Some id
           | Some _ | None -> None)

(* ---- the campaign report ---- *)

type job_line = {
  l_job : Grid.job;
  l_done : bool;
  l_verified : bool;  (** job verdict; false when not done *)
  l_verified_count : int;
  l_completed : int;  (** replicates that finished *)
  l_failed : int;  (** replicates that crashed *)
  l_fitness_mean : float;  (** nan when not done *)
  l_provenance : string;  (** "certified" / "simulated"; "-" when not done *)
  l_certified_rows : int;  (** truth-table rows the certificate proved *)
  l_total_rows : int;
}

let job_line t job =
  let id = Grid.job_id job in
  let absent =
    {
      l_job = job;
      l_done = false;
      l_verified = false;
      l_verified_count = 0;
      l_completed = 0;
      l_failed = 0;
      l_fitness_mean = nan;
      l_provenance = "-";
      l_certified_rows = 0;
      l_total_rows = 0;
    }
  in
  match Option.map Json.parse (get t ~id) with
  | None | Some (Error _) -> absent
  | Some (Ok doc) ->
      (* summary numbers are parsed once and re-rendered with the same
         shortest-round-trip printer that produced them, so they pass
         through the store byte-identically *)
      let top name conv = Option.bind (Json.member doc name) conv in
      let ens name conv =
        Option.bind (Json.member doc "ensemble") (fun e ->
            Option.bind (Json.member e name) conv)
      in
      let int name = Option.value ~default:0 (ens name Json.to_int) in
      {
        absent with
        l_done = true;
        l_verified =
          (* top-level verdict; documents stored before provenance
             existed only carry the ensemble consensus *)
          (match top "verified" Json.to_bool with
          | Some b -> b
          | None ->
              Option.value ~default:false
                (ens "consensus_verified" Json.to_bool));
        l_verified_count = int "verified_count";
        l_completed = int "completed";
        l_failed = int "failed";
        l_fitness_mean =
          Option.value ~default:nan (top "fitness_mean" Json.to_number);
        l_provenance =
          Option.value ~default:"simulated" (top "provenance" Json.to_str);
        l_certified_rows =
          Option.value ~default:0 (top "certified_rows" Json.to_int);
        l_total_rows =
          Option.value ~default:0 (top "total_rows" Json.to_int);
      }

let lines t (spec : Grid.spec) =
  List.map (job_line t) (Grid.expand spec.Grid.grid)

let report_json t (spec : Grid.spec) =
  let ls = lines t spec in
  let count p = Json.Int (List.length (List.filter p ls)) in
  let line l =
    Json.Object
      (Grid.job_fields l.l_job
      @
      if not l.l_done then [ ("status", Json.String "missing") ]
      else
        [
          ("status", Json.String "done");
          ("provenance", Json.String l.l_provenance);
          ("certified_rows", Json.Int l.l_certified_rows);
          ("total_rows", Json.Int l.l_total_rows);
          ("verified", Json.Bool l.l_verified);
          ("verified_count", Json.Int l.l_verified_count);
          ("completed", Json.Int l.l_completed);
          ("failed", Json.Int l.l_failed);
          ("fitness_mean", Json.Number l.l_fitness_mean);
        ])
  in
  Json.to_string
    (Json.Object
       [
         ( "campaign",
           Json.Object
             [
               ("seed", Json.Int spec.Grid.seed);
               ("total_time", Json.Number spec.Grid.total_time);
               ("hold_time", Json.Number spec.Grid.hold_time);
             ] );
         ( "totals",
           Json.Object
             [
               ("jobs", Json.Int (List.length ls));
               ("done", count (fun l -> l.l_done));
               ("missing", count (fun l -> not l.l_done));
               ("verified", count (fun l -> l.l_verified));
             ] );
         ("jobs", Json.Array (List.map line ls));
       ])

let pp_report ppf (t, (spec : Grid.spec)) =
  let ls = lines t spec in
  let done_count = List.length (List.filter (fun l -> l.l_done) ls) in
  let verified = List.length (List.filter (fun l -> l.l_verified) ls) in
  Format.fprintf ppf
    "@[<v>campaign %s: %d job(s), %d done, %d missing, %d verified \
     (seed %d)@,@,"
    (dir t) (List.length ls) done_count
    (List.length ls - done_count)
    verified spec.Grid.seed;
  Format.fprintf ppf "%-14s %9s %6s %8s %5s %-9s %-10s %5s %8s@," "circuit"
    "threshold" "fov" "high" "reps" "status" "source" "cert" "fitness";
  List.iter
    (fun l ->
      Format.fprintf ppf "%-14s %9g %6g %8s %5d %-9s %-10s %5s %8s@,"
        l.l_job.Grid.j_circuit l.l_job.Grid.j_threshold
        l.l_job.Grid.j_fov_ud
        (match l.l_job.Grid.j_input_high with
        | None -> "-"
        | Some h -> Printf.sprintf "%g" h)
        l.l_job.Grid.j_replicates
        (if not l.l_done then "missing"
         else if l.l_verified then "VERIFIED"
         else "WRONG")
        l.l_provenance
        (if l.l_done && l.l_total_rows > 0 then
           Printf.sprintf "%d/%d" l.l_certified_rows l.l_total_rows
         else "-")
        (if l.l_done then Printf.sprintf "%.2f%%" l.l_fitness_mean
         else "-"))
    ls;
  Format.fprintf ppf "@]"
