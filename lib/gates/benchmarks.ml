let all () = Circuits.all () @ Cello.all ()

(* Builds only the circuit asked for: assembling all ten Cello
   benchmarks to pick one costs ~4 ms, paid on every campaign job and
   atlas delay that resolves a circuit by name. *)
let find name =
  match
    List.find_opt (fun c -> String.equal c.Circuit.name name) (Circuits.all ())
  with
  | Some _ as c -> c
  | None ->
      List.find_opt
        (fun code -> String.equal (Cello.name_of_code ~arity:3 code) name)
        Cello.codes
      |> Option.map (fun code -> Cello.of_code code)

let names () = List.map (fun c -> c.Circuit.name) (all ())

let summary () =
  List.map
    (fun c ->
      (c.Circuit.name, Circuit.arity c, Circuit.n_gates c,
       Circuit.n_components c))
    (all ())
