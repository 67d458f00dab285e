module Grid = Glc_campaign.Grid
module Json = Glc_json

type phase =
  | Queued
  | Running
  | Done
  | Failed of string
  | Cancelled

let phase_label = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"

type entry = {
  id : string;
  job : Grid.job;
  priority : int;
  seq : int;
  submitted_at : float;
  mutable phase : phase;
  mutable from_cache : bool;
  mutable attempts : int;
}

let make ~job ~priority ~seq ~now =
  {
    id = Grid.job_id job;
    job;
    priority;
    seq;
    submitted_at = now;
    phase = Queued;
    from_cache = false;
    attempts = 0;
  }

(* Validation rides on Grid.make: a serve job is one cell of a campaign
   grid, so the axis constraints (and the job id) are the same by
   construction. *)
let job ~circuit ?threshold ?fov_ud ?input_high ?replicates () =
  let opt_axis v = Option.map (fun x -> [ x ]) v in
  match
    Grid.make
      ?thresholds:(opt_axis threshold)
      ?fov_uds:(opt_axis fov_ud)
      ?input_highs:(Option.map (fun h -> [ Some h ]) input_high)
      ?replicate_counts:(opt_axis replicates)
      [ circuit ]
  with
  | exception Invalid_argument m -> Error m
  | grid -> (
      match Grid.expand grid with
      | [ job ] -> Ok job
      | _ -> Error "internal error: single-cell grid expanded to several jobs")

let spec_for ~seed ~total_time ~hold_time (job : Grid.job) =
  let grid =
    Grid.make
      ~thresholds:[ job.Grid.j_threshold ]
      ~fov_uds:[ job.Grid.j_fov_ud ]
      ~input_highs:[ job.Grid.j_input_high ]
      ~replicate_counts:[ job.Grid.j_replicates ]
      [ job.Grid.j_circuit ]
  in
  Grid.spec ~seed ~total_time ~hold_time grid

(* ---- JSON ---- *)

(* coordinates, priority and admission order: everything a submission
   record persists, and the head of every status document *)
let coordinates e =
  Grid.job_fields e.job
  @ [ ("priority", Json.Int e.priority); ("seq", Json.Int e.seq) ]

let status ~now e =
  let error =
    match e.phase with Failed m -> [ ("error", Json.String m) ] | _ -> []
  in
  Json.Object
    (coordinates e
    @ (("status", Json.String (phase_label e.phase)) :: error)
    @ [
        ("from_cache", Json.Bool e.from_cache);
        ("attempts", Json.Int e.attempts);
        ("age_s", Json.Number (Float.max 0. (now -. e.submitted_at)));
      ])

let status_json ~now e = Json.to_string (status ~now e)
let submission_json e = Json.to_string (Json.Object (coordinates e))

let submission_of_json text =
  match Json.parse text with
  | Error m -> Error (Printf.sprintf "unparseable submission record: %s" m)
  | Ok doc -> (
      let str k = Option.bind (Json.member doc k) Json.to_str in
      let num k = Option.bind (Json.member doc k) Json.to_number in
      let int k = Option.bind (Json.member doc k) Json.to_int in
      match (str "circuit", num "threshold", num "fov_ud", int "replicates") with
      | Some circuit, Some threshold, Some fov_ud, Some replicates -> (
          let input_high =
            match Json.member doc "input_high" with
            | Some (Json.Number h) -> Some h
            | _ -> None
          in
          match
            job ~circuit ~threshold ~fov_ud ?input_high ~replicates ()
          with
          | Error m -> Error m
          | Ok j -> (
              match (int "priority", int "seq") with
              | Some priority, Some seq -> Ok (j, priority, seq)
              | _ -> Error "submission record lacks priority/seq"))
      | _ -> Error "submission record lacks job coordinates")

(* ---- registry ---- *)

type registry = (string, entry) Hashtbl.t

let registry () : registry = Hashtbl.create 64

let find (r : registry) id = Hashtbl.find_opt r id

let add (r : registry) e = Hashtbl.replace r e.id e

let entries (r : registry) =
  Hashtbl.fold (fun _ e acc -> e :: acc) r []
  |> List.sort (fun a b -> compare a.seq b.seq)

let count (r : registry) phase =
  let same a b =
    match (a, b) with
    | Queued, Queued | Running, Running | Done, Done | Cancelled, Cancelled
    | Failed _, Failed _ ->
        true
    | _ -> false
  in
  Hashtbl.fold (fun _ e acc -> if same e.phase phase then acc + 1 else acc) r 0
