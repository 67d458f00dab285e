(* Tests for glc_campaign: the declarative grid, the JSON reader it
   relies on, crash-safety of the store and journal, failure capture in
   the runner, and the headline contract — a killed-and-resumed
   campaign produces a byte-identical report. *)

module Json = Glc_core.Report.Json
module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Journal = Glc_campaign.Journal
module Runner = Glc_campaign.Runner
module Resume = Glc_campaign.Resume

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
      (Printf.sprintf "glc-campaign-test-%d-%d" (Unix.getpid ()) !counter)

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

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* ---- the JSON reader (Report.Json.parse) ---- *)

let test_json_parse_values () =
  let ok s = Result.get_ok (Json.parse s) in
  checkb "true" true (Option.get (Json.to_bool (ok "true")));
  checkb "null" true (ok " null " = Json.Null);
  checki "int" 42 (Option.get (Json.to_int (ok "42")));
  Alcotest.check (Alcotest.float 0.) "negative exponent" (-1.5e3)
    (Option.get (Json.to_number (ok "-1.5e3")));
  checks "string escapes" "a\"b\\c\n\t/"
    (Option.get (Json.to_str (ok {|"a\"b\\c\n\t\/"|})));
  checks "unicode escape" "\xe2\x82\xac"
    (Option.get (Json.to_str (ok {|"\u20ac"|})));
  checks "upper-case hex digits" "\xc3\xa9"
    (Option.get (Json.to_str (ok {|"\u00E9"|})));
  checks "surrogate pair" "\xf0\x9d\x84\x9e"
    (Option.get (Json.to_str (ok {|"\ud834\udd1e"|})));
  List.iter
    (fun (text, x) ->
      Alcotest.check (Alcotest.float 0.) text x
        (Option.get (Json.to_number (ok text))))
    [
      ("0", 0.); ("-0", -0.); ("10", 10.); ("2.50", 2.5); ("1E+2", 100.);
      ("-0.5e-3", -0.5e-3); ("0e0", 0.);
    ];
  checki "array" 3
    (List.length (Option.get (Json.to_list (ok "[1, 2, 3]"))));
  let obj = ok {|{"a": 1, "b": {"c": [true]}}|} in
  checki "nested member" 1
    (Option.get (Option.bind (Json.member obj "a") Json.to_int));
  checkb "deep member" true
    (Option.get
       (Option.bind
          (Option.bind
             (Option.bind (Json.member obj "b") (fun b ->
                  Json.member b "c"))
             (fun l -> Option.map List.hd (Json.to_list l)))
          Json.to_bool))

let test_json_parse_rejects () =
  let bad s = Result.is_error (Json.parse s) in
  checkb "empty" true (bad "");
  checkb "truncated object" true (bad {|{"a": 1|});
  checkb "truncated string" true (bad {|"abc|});
  checkb "trailing garbage" true (bad "{} x");
  checkb "bare word" true (bad "nope");
  checkb "lone minus" true (bad "-");
  (* strict RFC 8259: exactly four hex digits per \u escape, and the
     number grammar without leading zeros, bare dots or '+' signs *)
  List.iter
    (fun s -> checkb (Printf.sprintf "%S" s) true (bad s))
    [
      {|"\u0_41"|}; {|"\u00g1"|}; {|"\u+041"|}; {|"\u 041"|}; {|"\u004"|};
      "1."; "01"; "-01"; "00"; ".5"; "-.5"; "+1"; "1e"; "1e+"; "1.e5";
      "0x10"; "[1.,2]"; {|{"a":01}|};
      (* lone or mismatched UTF-16 surrogates encode no character *)
      {|"\ud834"|}; {|"\udd1e"|}; {|"\ud834\u0041"|}; {|"\ud834x"|};
    ]

let test_json_float_roundtrip () =
  (* the determinism contract: parsing a Json.float rendering and
     re-rendering it reproduces the bytes *)
  List.iter
    (fun f ->
      let printed = Json.float f in
      let reparsed =
        Option.get (Json.to_number (Result.get_ok (Json.parse printed)))
      in
      checks
        (Printf.sprintf "roundtrip %s" printed)
        printed (Json.float reparsed))
    [ 0.; 1.; -1.; 0.1; 15.; 97.34; 1e-7; 1.7976931348623157e308; 3.14 ]

(* ---- grid ---- *)

let two_job_grid () =
  Grid.make ~replicate_counts:[ 2; 3 ] [ "genetic_NOT" ]

let quick_spec ?(seed = 11) () =
  Grid.spec ~seed ~total_time:2_000. ~hold_time:1_000. (two_job_grid ())

let test_grid_expand () =
  let grid =
    Grid.make ~thresholds:[ 10.; 15. ] ~replicate_counts:[ 2 ]
      [ "genetic_NOT"; "genetic_AND" ]
  in
  let jobs = Grid.expand grid in
  checki "size" 4 (Grid.size grid);
  checki "expand matches size" 4 (List.length jobs);
  (* circuits outermost, thresholds inner *)
  checks "first job circuit" "genetic_NOT"
    (List.hd jobs).Grid.j_circuit;
  checkb "circuit order" true
    (List.map (fun j -> j.Grid.j_circuit) jobs
    = [ "genetic_NOT"; "genetic_NOT"; "genetic_AND"; "genetic_AND" ]);
  let ids = List.map Grid.job_id jobs in
  checki "ids distinct" 4 (List.length (List.sort_uniq compare ids));
  (* position-independence: the same parameters give the same id in a
     differently shaped grid *)
  let solo =
    Grid.expand
      (Grid.make ~thresholds:[ 15. ] ~replicate_counts:[ 2 ]
         [ "genetic_AND" ])
  in
  checks "content-derived id" (Grid.job_id (List.hd solo))
    (List.nth ids 3)

let test_grid_seeds () =
  let jobs = Grid.expand (two_job_grid ()) in
  let seeds = List.map (Grid.job_seed ~seed:11) jobs in
  checki "distinct per job" 2 (List.length (List.sort_uniq compare seeds));
  checkb "root seed matters" true
    (Grid.job_seed ~seed:11 (List.hd jobs)
    <> Grid.job_seed ~seed:12 (List.hd jobs));
  checkb "non-negative" true (List.for_all (fun s -> s >= 0) seeds)

let test_grid_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "empty circuits" true (raises (fun () -> Grid.make []));
  checkb "duplicate axis" true
    (raises (fun () -> Grid.make ~thresholds:[ 15.; 15. ] [ "c" ]));
  checkb "non-positive threshold" true
    (raises (fun () -> Grid.make ~thresholds:[ 0. ] [ "c" ]));
  checkb "replicates < 1" true
    (raises (fun () -> Grid.make ~replicate_counts:[ 0 ] [ "c" ]));
  checkb "non-positive time" true
    (raises (fun () -> Grid.spec ~total_time:0. (Grid.make [ "c" ])))

let test_manifest_roundtrip () =
  let spec = quick_spec () in
  let json = Grid.spec_to_json spec in
  let spec' = Result.get_ok (Grid.spec_of_json json) in
  checks "roundtrip bytes" json (Grid.spec_to_json spec');
  checki "seed survives" spec.Grid.seed spec'.Grid.seed;
  checkb "unknown version rejected" true
    (Result.is_error
       (Grid.spec_of_json
          {|{"version":99,"seed":1,"total_time":10,"hold_time":1,"grid":{}}|}));
  checkb "garbage rejected" true
    (Result.is_error (Grid.spec_of_json "not json"))

(* ---- store ---- *)

let test_store_roundtrip () =
  with_dir (fun dir ->
      let store = Result.get_ok (Store.create ~dir "{\"version\":1}") in
      checkb "create twice refused" true
        (Result.is_error (Store.create ~dir "{}"));
      checkb "absent" true (Store.get store ~id:"a" = None);
      Store.put store ~id:"a" {|{"x": 1}|};
      checks "roundtrip" {|{"x": 1}|}
        (Option.get (Store.get store ~id:"a"));
      Store.put store ~id:"a" {|{"x": 2}|};
      checks "overwrite" {|{"x": 2}|}
        (Option.get (Store.get store ~id:"a"));
      let store', manifest = Result.get_ok (Store.load ~dir) in
      checks "manifest preserved" "{\"version\":1}" manifest;
      checkb "reload sees results" true (Store.mem store' ~id:"a"))

let test_store_crash_safety () =
  with_dir (fun dir ->
      let store = Result.get_ok (Store.create ~dir "{}") in
      Store.put store ~id:"good" {|{"ok": true}|};
      let results = Filename.concat dir "results" in
      (* a torn write: truncated JSON must read as absent, not corrupt *)
      write_file (Filename.concat results "torn.json") {|{"ok": tr|};
      (* a leftover temp file from a killed writer must be invisible *)
      write_file
        (Filename.concat results "tmpjob.json.12345.tmp")
        {|{"ok": true}|};
      checkb "torn result reads as absent" true
        (Store.get store ~id:"torn" = None);
      checkb "temp leftovers invisible" true
        (Store.get store ~id:"tmpjob" = None);
      checkb "completed lists only parseable results" true
        (Store.completed store = [ "good" ]))

(* ---- journal ---- *)

let test_journal_roundtrip () =
  with_dir (fun dir ->
      let j = Journal.open_ ~dir in
      Journal.append j (Journal.Scheduled "a");
      Journal.append j (Journal.Started "a");
      Journal.append j (Journal.Failed ("a", "boom: \"quoted\"\nline"));
      Journal.append j (Journal.Done "a");
      Journal.close j;
      Journal.close j;
      (* idempotent *)
      let events = Journal.read ~dir in
      checki "all records back" 4 (List.length events);
      checkb "order and payload preserved" true
        (events
        = [
            Journal.Scheduled "a"; Journal.Started "a";
            Journal.Failed ("a", "boom: \"quoted\"\nline");
            Journal.Done "a";
          ]);
      (* append after close must raise, not write through a dead fd *)
      checkb "append after close raises" true
        (match Journal.append j (Journal.Done "b") with
        | exception Invalid_argument _ -> true
        | () -> false))

let test_journal_partial_tail () =
  with_dir (fun dir ->
      let j = Journal.open_ ~dir in
      Journal.append j (Journal.Done "a");
      Journal.close j;
      (* simulate a crash mid-append: raw partial record, no newline *)
      let path = Filename.concat dir "journal.jsonl" in
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 path
      in
      output_string oc {|{"event":"done","job":"b|};
      close_out oc;
      let events = Journal.read ~dir in
      checki "partial trailing line dropped" 1 (List.length events);
      checkb "acknowledged record intact" true
        (events = [ Journal.Done "a" ]);
      (* a later append lands on its own line *)
      let j = Journal.open_ ~dir in
      Journal.append j (Journal.Done "c");
      Journal.close j;
      checkb "journal usable after crash tail" true
        (List.mem (Journal.Done "c") (Journal.read ~dir)))

(* ---- runner: failure capture ---- *)

let test_runner_captures_failures () =
  with_dir (fun dir ->
      let grid =
        Grid.make ~replicate_counts:[ 2 ]
          [ "no_such_circuit"; "genetic_NOT" ]
      in
      let spec =
        Grid.spec ~seed:11 ~total_time:2_000. ~hold_time:1_000. grid
      in
      let store =
        Result.get_ok (Store.create ~dir (Grid.spec_to_json spec))
      in
      let journal = Journal.open_ ~dir in
      let summary =
        Runner.run ~store ~journal spec (Grid.expand spec.Grid.grid)
      in
      Journal.close journal;
      checki "both attempted" 2 summary.Runner.ran;
      checki "one failed" 1 summary.Runner.failed;
      checki "one succeeded" 1 summary.Runner.succeeded;
      (* the failed job leaves no store entry, so resume re-queues it *)
      checki "only the good job stored" 1
        (List.length (Store.completed store));
      let bad_id =
        Grid.job_id (List.hd (Grid.expand spec.Grid.grid))
      in
      checkb "failure journaled with its error" true
        (List.exists
           (function
             | Journal.Failed (id, _) -> id = bad_id
             | _ -> false)
           (Journal.read ~dir));
      let st = Result.get_ok (Resume.status ~dir) in
      checki "status: failed job pending again" 1
        (List.length st.Resume.s_pending))

(* ---- the headline contract: kill + resume == uninterrupted ---- *)

let started_ids ~dir =
  List.filter_map
    (function Journal.Started id -> Some id | _ -> None)
    (Journal.read ~dir)

let test_resume_determinism () =
  with_dir (fun uninterrupted ->
      with_dir (fun killed ->
          let spec = quick_spec () in
          let manifest = Grid.spec_to_json spec in
          let jobs = Grid.expand spec.Grid.grid in
          checki "two jobs" 2 (List.length jobs);
          (* reference: an uninterrupted run of the whole campaign *)
          ignore
            (Result.get_ok (Store.create ~dir:uninterrupted manifest));
          let _, _, s0 =
            Result.get_ok (Resume.run ~dir:uninterrupted ())
          in
          checki "uninterrupted runs everything" 2 s0.Runner.succeeded;
          let ref_store, ref_spec =
            Result.get_ok (Resume.load ~dir:uninterrupted)
          in
          let reference = Store.report_json ref_store ref_spec in
          (* the same campaign, killed after one job: limit=1 plays the
             role of the kill *)
          ignore (Result.get_ok (Store.create ~dir:killed manifest));
          let _, _, s1 =
            Result.get_ok (Resume.run ~limit:1 ~dir:killed ())
          in
          checki "first run attempts one job" 1 s1.Runner.ran;
          checki "one job remains" 1 s1.Runner.remaining;
          let first_batch = started_ids ~dir:killed in
          checki "journal: one start so far" 1 (List.length first_batch);
          (* resume: must run exactly the n-k remaining jobs *)
          let _, _, s2 = Result.get_ok (Resume.run ~dir:killed ()) in
          checki "resume attempts only the missing job" 1 s2.Runner.ran;
          checki "resume completes the campaign" 0 s2.Runner.remaining;
          let all_started = started_ids ~dir:killed in
          checki "journal: two starts total" 2 (List.length all_started);
          checki "no job started twice" 2
            (List.length (List.sort_uniq compare all_started));
          (* and nothing pends on a third pass *)
          let _, _, s3 = Result.get_ok (Resume.run ~dir:killed ()) in
          checki "idempotent once complete" 0 s3.Runner.ran;
          (* the contract: byte-identical reports *)
          let store, spec' = Result.get_ok (Resume.load ~dir:killed) in
          checks "resumed report byte-identical" reference
            (Store.report_json store spec');
          (* and byte-identical per-job documents *)
          List.iter
            (fun job ->
              let id = Grid.job_id job in
              checks
                (Printf.sprintf "job %s document identical" id)
                (Option.get (Store.get ref_store ~id))
                (Option.get (Store.get store ~id)))
            jobs))

(* ---- the store lock (single-writer discipline) ---- *)

let test_lock_exclusion () =
  with_dir (fun dir ->
      Store.mkdir_p dir;
      let lock = Result.get_ok (Store.Lock.acquire ~dir) in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      (match Store.Lock.acquire ~dir with
      | Ok _ -> Alcotest.fail "second acquire must fail"
      | Error m ->
          checkb "error names the holder pid" true
            (contains m (string_of_int (Unix.getpid ()))));
      Store.Lock.release lock;
      Store.Lock.release lock (* idempotent *);
      let lock2 = Result.get_ok (Store.Lock.acquire ~dir) in
      Store.Lock.release lock2)

let test_lock_breaks_stale () =
  with_dir (fun dir ->
      Store.mkdir_p dir;
      (* a pid that cannot be live: max_pid defaults to 2^22 on linux,
         and 0x3FFFFFFF is far above any configurable ceiling *)
      write_file (Store.Lock.path ~dir) "1073741823\n";
      let lock = Result.get_ok (Store.Lock.acquire ~dir) in
      Store.Lock.release lock;
      (* unparseable content is also treated as stale *)
      write_file (Store.Lock.path ~dir) "not a pid";
      let lock2 = Result.get_ok (Store.Lock.acquire ~dir) in
      Store.Lock.release lock2)

let test_resume_holds_lock () =
  with_dir (fun dir ->
      let spec = quick_spec () in
      ignore (Result.get_ok (Store.create ~dir (Grid.spec_to_json spec)));
      (* a held lock must make the drain fail cleanly, not corrupt *)
      let lock = Result.get_ok (Store.Lock.acquire ~dir) in
      checkb "drain refuses a locked dir" true
        (Result.is_error (Resume.run ~dir ()));
      Store.Lock.release lock;
      let _, _, s = Result.get_ok (Resume.run ~dir ()) in
      checki "drain runs after release" 2 s.Runner.succeeded;
      checkb "lock released after drain" true
        (not (Sys.file_exists (Store.Lock.path ~dir))))

(* ---- graceful interruption (should_stop) ---- *)

let test_runner_should_stop () =
  with_dir (fun dir ->
      let spec = quick_spec () in
      ignore (Result.get_ok (Store.create ~dir (Grid.spec_to_json spec)));
      (* stop after the first job: the flag flips once a job has run *)
      let ran_one = ref false in
      let _, _, s =
        Result.get_ok
          (Resume.run
             ~should_stop:(fun () ->
               let stop = !ran_one in
               ran_one := true;
               stop)
             ~dir ())
      in
      checki "one job ran" 1 s.Runner.ran;
      checki "one job remains" 1 s.Runner.remaining;
      (* the journal is intact and a plain resume finishes the rest *)
      checkb "journal parseable" true (Journal.read ~dir <> []);
      let _, _, s2 = Result.get_ok (Resume.run ~dir ()) in
      checki "resume finishes the remainder" 1 s2.Runner.ran;
      checki "nothing remains" 0 s2.Runner.remaining)

(* ---- kill-and-inspect: SIGINT against the real CLI ---- *)

let glcv_exe = Filename.concat (Sys.getcwd ()) "../bin/glcv.exe"

let run_glcv ?(kill_after : float option) args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process glcv_exe
      (Array.of_list (glcv_exe :: args))
      devnull devnull devnull
  in
  Unix.close devnull;
  (match kill_after with
  | None -> ()
  | Some dt ->
      ignore (Unix.select [] [] [] dt);
      (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ()));
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1

let test_cli_sigint_campaign () =
  with_dir (fun dir ->
      (* enough replicate mass that 0.4 s lands mid-drain *)
      let args =
        [
          "campaign"; "run"; "--dir"; dir; "-c"; "genetic_NOT";
          "--replicates"; "8,10,12,14,16,18"; "--total"; "2000";
          "--hold"; "1000";
        ]
      in
      let code = run_glcv ~kill_after:0.4 args in
      if code = 130 then begin
        (* interrupted: the journal survived and is parseable, and a
           plain resume completes the campaign *)
        checkb "journal parseable after SIGINT" true
          (Journal.read ~dir <> []);
        let resume_code =
          run_glcv [ "campaign"; "resume"; "--dir"; dir ]
        in
        checki "resume completes cleanly" 0 resume_code;
        let store, spec = Result.get_ok (Resume.load ~dir) in
        checkb "every job done after resume" true
          (List.for_all
             (fun l -> l.Store.l_done)
             (Store.lines store spec))
      end
      else
        (* the machine raced ahead and finished before the signal;
           that is a pass for the exit-code contract, not a failure *)
        checki "finished before the signal" 0 code)

let test_report_counts_missing () =
  with_dir (fun dir ->
      let spec = quick_spec () in
      ignore
        (Result.get_ok (Store.create ~dir (Grid.spec_to_json spec)));
      let _, _, _ = Result.get_ok (Resume.run ~limit:1 ~dir ()) in
      let store, spec' = Result.get_ok (Resume.load ~dir) in
      let report = Result.get_ok (Json.parse (Store.report_json store spec')) in
      let totals = Option.get (Json.member report "totals") in
      let count k =
        Option.get (Option.bind (Json.member totals k) Json.to_int)
      in
      checki "jobs" 2 (count "jobs");
      checki "done" 1 (count "done");
      checki "missing" 1 (count "missing");
      let lines = Store.lines store spec' in
      checki "one line not done" 1
        (List.length (List.filter (fun l -> not l.Store.l_done) lines)))

let () =
  Alcotest.run "glc_campaign"
    [
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_parse_values;
          Alcotest.test_case "rejects malformed" `Quick
            test_json_parse_rejects;
          Alcotest.test_case "float roundtrip" `Quick
            test_json_float_roundtrip;
        ] );
      ( "grid",
        [
          Alcotest.test_case "deterministic expansion" `Quick
            test_grid_expand;
          Alcotest.test_case "job seeds" `Quick test_grid_seeds;
          Alcotest.test_case "validation" `Quick test_grid_validation;
          Alcotest.test_case "manifest roundtrip" `Quick
            test_manifest_roundtrip;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "crash safety" `Quick test_store_crash_safety;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "partial trailing line" `Quick
            test_journal_partial_tail;
        ] );
      ( "lock",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_lock_exclusion;
          Alcotest.test_case "stale lock broken" `Quick
            test_lock_breaks_stale;
          Alcotest.test_case "drain takes the lock" `Slow
            test_resume_holds_lock;
        ] );
      ( "runner",
        [
          Alcotest.test_case "failure capture" `Quick
            test_runner_captures_failures;
          Alcotest.test_case "graceful stop between jobs" `Slow
            test_runner_should_stop;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill + resume determinism" `Slow
            test_resume_determinism;
          Alcotest.test_case "report counts missing jobs" `Quick
            test_report_counts_missing;
          Alcotest.test_case "SIGINT exits 130 and resumes" `Slow
            test_cli_sigint_campaign;
        ] );
    ]
