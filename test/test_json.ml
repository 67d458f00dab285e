(* Tests for glc_json, the one codec every persisted and served document
   goes through: the compact printer's determinism contract, a
   print/parse round-trip property over generated trees, and
   crash-freedom of the reader on damaged real documents. The reader's
   accept/reject cases live with the campaign tests that first used it. *)

module Json = Glc_json
module Grid = Glc_campaign.Grid
module Runner = Glc_campaign.Runner
module Journal = Glc_campaign.Journal
module Ensemble = Glc_engine.Ensemble
module Certificate = Glc_symbolic.Certificate
module Benchmarks = Glc_gates.Benchmarks
module Circuit = Glc_gates.Circuit

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ---- printer ---- *)

let test_printer () =
  checks "compact, fields in list order"
    {|{"b":[1,2.5,null,true],"a":{},"c":[],"d":"x\"y"}|}
    (Json.to_string
       (Json.Object
          [
            ( "b",
              Json.Array
                [ Json.Int 1; Json.Number 2.5; Json.Null; Json.Bool true ] );
            ("a", Json.Object []);
            ("c", Json.Array []);
            ("d", Json.String "x\"y");
          ]));
  checks "Int prints every digit" (string_of_int max_int)
    (Json.to_string (Json.Int max_int));
  checks "integral Number prints like string_of_int" "-123456789012345"
    (Json.to_string (Json.Number (-123456789012345.)));
  checks "non-finite numbers print as null" "[null,null,null]"
    (Json.to_string
       (Json.Array
          [
            Json.Number Float.nan;
            Json.Number Float.infinity;
            Json.Number Float.neg_infinity;
          ]));
  checks "control characters escape" {|"\u0001\n\t\r\\\u001f"|}
    (Json.to_string (Json.String "\001\n\t\r\\\031"));
  checks "Number prints through float" (Json.float 0.1)
    (Json.to_string (Json.Number 0.1));
  checkb "Int reads back through the accessors" true
    (Json.to_int (Json.Int 7) = Some 7 && Json.to_number (Json.Int 7) = Some 7.)

(* ---- round-trip property ---- *)

let string_gen =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        oneofl
          [
            "a"; "\""; "\\"; "/"; "\n"; "\r"; "\t"; "\b"; "\012"; "\000";
            "\001"; "\031"; "\127"; " "; "\xc3\xa9"; "\xe2\x82\xac";
            "\xf0\x9d\x84\x9e"; "u0041"; "\\u";
          ];
        map (String.make 1) char;
      ]
  in
  map (String.concat "") (list_size (int_bound 8) piece)

let finite_float_gen =
  let open QCheck.Gen in
  oneof
    [
      oneofl
        [
          0.; -0.; 1.; -1.; 0.1; 1e15; 1e15 +. 1.; 9007199254740993.; 1e-7;
          5e-324; Float.max_float; -.Float.max_float; 2.5e-308; 99.95;
        ];
      map (fun x -> if Float.is_finite x then x else 0.) float;
      map float_of_int int;
    ]

let value_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun x -> Json.Number x) finite_float_gen;
               map (fun s -> Json.String s) string_gen;
             ]
         in
         if n <= 0 then leaf
         else
           let sub = self (n / 4) in
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Array l) (list_size (int_bound 5) sub));
               ( 1,
                 map
                   (fun l -> Json.Object l)
                   (list_size (int_bound 5) (pair string_gen sub)) );
             ])

let qcheck_round_trip =
  QCheck.Test.make ~count:2000 ~name:"parse (to_string v) = Ok v"
    (QCheck.make ~print:Json.to_string value_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

(* ---- crash-free reader on damaged real documents ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let journal_line () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "glc-json-test-%d" (Unix.getpid ()))
  in
  let j = Journal.open_ ~dir in
  Journal.append j (Journal.Failed ("genetic_NOT-1", "Failure(\"x\")\n"));
  Journal.close j;
  let path = Filename.concat dir "journal.jsonl" in
  let line = read_file path in
  Sys.remove path;
  Unix.rmdir dir;
  line

let real_documents =
  lazy
    (let spec =
       Grid.spec ~total_time:2000. ~hold_time:1000.
         (Grid.make ~input_highs:[ None; Some 20. ] [ "genetic_NOT" ])
     in
     let job = List.hd (Grid.expand spec.Grid.grid) in
     let c = Option.get (Benchmarks.find "genetic_NOT") in
     let ensemble =
       Ensemble.aggregate ~name:"genetic_NOT" ~seed:7 ~requested:1
         ~expected:c.Circuit.expected ~replicates:[]
         ~failures:[ { Ensemble.fail_index = 0; fail_error = "boom" } ]
     in
     let space = read_file "../SPACE.json" in
     [
       ("manifest", Grid.spec_to_json spec);
       ( "certified job document",
         Runner.certified_document ~seed:7 job (Certificate.certify c) );
       ("simulated job document", Runner.job_document ~seed:7 job ensemble);
       ("journal line", journal_line ());
       ( "SPACE.json prefix",
         String.sub space 0 (min 3000 (String.length space)) );
     ])

let parse_total s =
  match Json.parse s with Ok _ | Error _ -> true | exception _ -> false

let test_truncations () =
  List.iter
    (fun (name, doc) ->
      for len = 0 to String.length doc do
        if not (parse_total (String.sub doc 0 len)) then
          Alcotest.failf "%s truncated to %d bytes raised" name len
      done)
    (Lazy.force real_documents)

let qcheck_mutations =
  QCheck.Test.make ~count:3000
    ~name:"single-byte mutations of real documents never raise"
    QCheck.(triple (int_bound 4) (int_bound 100_000) char)
    (fun (which, pos, byte) ->
      let _, doc = List.nth (Lazy.force real_documents) which in
      let b = Bytes.of_string doc in
      Bytes.set b (pos mod Bytes.length b) byte;
      parse_total (Bytes.to_string b))

let () =
  Alcotest.run "glc_json"
    [
      ( "codec",
        [
          Alcotest.test_case "compact printer" `Quick test_printer;
          QCheck_alcotest.to_alcotest qcheck_round_trip;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "truncated real documents" `Quick test_truncations;
          QCheck_alcotest.to_alcotest qcheck_mutations;
        ] );
    ]
