(* Golden tests for the CLI contract: exit codes (0 = clean/confirmed,
   1 = bug found, 2 = usage error) and stream separation (machine-readable
   results on stdout, progress/headers/diagnostics on stderr). Spawns the
   real binary — (deps ...) in test/dune keeps it built. *)

let case name f = Alcotest.test_case name `Quick f
let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/sandtable_cli.exe"

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_cli args =
  let out = Filename.temp_file "sandtable-cli" ".out" in
  let err = Filename.temp_file "sandtable-cli" ".err" in
  let fd_of path = Unix.openfile path [ O_WRONLY; O_TRUNC ] 0o600 in
  let fd_out = fd_of out and fd_err = fd_of err in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let _, status = Unix.waitpid [] pid in
  let code =
    match status with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  let read path =
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> slurp path)
  in
  (code, read out, read err)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains label haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s: expected %S in:\n%s" label needle haystack

let with_tmpdir f =
  let dir = Filename.temp_file "sandtable-cli" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let test_systems_listing () =
  let code, out, err = run_cli [ "systems" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "stdout lists systems" out "pysyncobj";
  Alcotest.(check string) "stderr silent" "" err

let test_unknown_system_usage () =
  let code, out, err = run_cli [ "check"; "nosuchsystem" ] in
  Alcotest.(check int) "exit 2" 2 code;
  check_contains "stderr explains" err "unknown system";
  Alcotest.(check string) "stdout clean" "" out

let test_unknown_flag_usage () =
  let code, _, err = run_cli [ "check"; "pysyncobj"; "--bugs"; "nope" ] in
  Alcotest.(check int) "exit 2" 2 code;
  check_contains "stderr explains" err "unknown bug or flag"

let test_check_finds_bug_and_records () =
  with_tmpdir (fun tmp ->
      let dir = Filename.concat tmp "run" in
      let code, out, err =
        run_cli
          [ "check"; "daosraft"; "--bugs"; "daos1"; "-j"; "1"; "--run-dir";
            dir; "--shrink" ]
      in
      Alcotest.(check int) "exit 1 on violation" 1 code;
      (* results on stdout, the scenario header on stderr *)
      check_contains "violation on stdout" out "violated at depth";
      check_contains "shrink summary on stdout" out "shrunk";
      check_contains "confirmation on stdout" out "CONFIRMED";
      check_contains "header on stderr" err "model checking daosraft";
      Alcotest.(check bool) "header not on stdout" false
        (contains out "model checking");
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " written") true
            (Sys.file_exists (Filename.concat dir f)))
        [ "manifest.json"; "trace.bin"; "minimized.trace"; "metrics.json" ];
      let manifest = slurp (Filename.concat dir "manifest.json") in
      check_contains "manifest records shrink" manifest "\"shrink\"";
      (* standalone shrink over the same run dir re-confirms: exit 0 *)
      let code, out, _ = run_cli [ "shrink"; dir; "-j"; "2" ] in
      Alcotest.(check int) "shrink exit 0" 0 code;
      check_contains "shrink prints summary" out "shrunk";
      (* run dirs are discoverable and summarizable *)
      let code, out, _ = run_cli [ "runs"; dir ] in
      Alcotest.(check int) "runs exit 0" 0 code;
      check_contains "runs lists the manifest" out "daosraft";
      let code, out, _ = run_cli [ "stats"; dir ] in
      Alcotest.(check int) "stats exit 0" 0 code;
      check_contains "stats shows metrics" out "daosraft")

let test_clean_check_exit_zero () =
  let code, out, err =
    run_cli [ "check"; "pysyncobj"; "-t"; "1"; "-j"; "1" ]
  in
  Alcotest.(check int) "exit 0 when nothing found" 0 code;
  check_contains "summary on stdout" out "distinct=";
  check_contains "header on stderr" err "model checking pysyncobj"

let test_stats_compare_and_follow () =
  with_tmpdir (fun tmp ->
      let a = Filename.concat tmp "a" and b = Filename.concat tmp "b" in
      let check dir =
        run_cli
          [ "check"; "pysyncobj"; "-t"; "30"; "--max-states"; "3000";
            "--progress-every"; "1s"; "--run-dir"; dir ]
      in
      let code, _, _ = check a in
      Alcotest.(check int) "run A exits 0" 0 code;
      let code, _, _ = check b in
      Alcotest.(check int) "run B exits 0" 0 code;
      (* the instrumented run left both new artefacts behind *)
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " written") true
            (Sys.file_exists (Filename.concat a f)))
        [ "telemetry.ndjsonl"; "profile.json" ];
      (* plain stats renders the profile sections *)
      let code, out, _ = run_cli [ "stats"; a ] in
      Alcotest.(check int) "stats exit 0" 0 code;
      check_contains "profile rendered" out "top duplicate source";
      check_contains "telemetry summarized" out "telemetry:";
      (* compare: identical configurations diff to +0.0% on exploration
         shape (timing-derived rows are free to differ) *)
      let code, out, _ = run_cli [ "stats"; "--compare"; a; b ] in
      Alcotest.(check int) "compare exit 0" 0 code;
      check_contains "side-by-side header" out "delta";
      check_contains "dup ratio row" out "dup ratio %";
      check_contains "identical shape" out "+0.0%";
      (* gate: a dup-ratio rise of 0pp trips a -1pp threshold (exit 1)
         and passes a +5pp one (exit 0) — deterministic, unlike rate *)
      let code, _, err =
        run_cli [ "stats"; "--compare"; a; b; "--fail-threshold-dup=-1.0" ]
      in
      Alcotest.(check int) "regression gate trips" 1 code;
      check_contains "verdict on stderr" err "regression";
      let code, _, _ =
        run_cli [ "stats"; "--compare"; a; b; "--fail-threshold-dup"; "5.0" ]
      in
      Alcotest.(check int) "gate passes in bounds" 0 code;
      (* --follow on a finished run prints every sample and exits *)
      let code, out, _ = run_cli [ "stats"; "--follow"; a ] in
      Alcotest.(check int) "follow exit 0" 0 code;
      check_contains "samples printed" out "layer";
      (* --compare without a second directory is a usage error *)
      let code, _, _ = run_cli [ "stats"; "--compare"; a ] in
      Alcotest.(check int) "compare needs two dirs" 2 code)

let test_bad_cadence_usage () =
  let code, _, err =
    run_cli [ "check"; "pysyncobj"; "--progress-every"; "2x" ]
  in
  Alcotest.(check int) "bad progress cadence exits 2" 2 code;
  check_contains "stderr explains" err "--progress-every";
  let code, _, err =
    run_cli [ "check"; "pysyncobj"; "--telemetry-every"; "fast" ]
  in
  Alcotest.(check int) "bad telemetry cadence exits 2" 2 code;
  check_contains "stderr explains" err "--telemetry-every"

let test_stats_missing_dir_usage () =
  let code, _, err = run_cli [ "stats"; "/nonexistent/run-dir" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "stderr explains" true (String.length err > 0)

let test_shrink_missing_dir_usage () =
  let code, _, err = run_cli [ "shrink"; "/nonexistent/run-dir" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "stderr explains" true (String.length err > 0)

let test_faults_unknown_schedule_usage () =
  let code, out, err = run_cli [ "check"; "pysyncobj"; "--faults"; "nosuch" ] in
  Alcotest.(check int) "exit 2" 2 code;
  check_contains "stderr explains" err "unknown fault schedule";
  Alcotest.(check string) "stdout clean" "" out

let test_faults_compile_error_usage () =
  with_tmpdir (fun tmp ->
      let file = Filename.concat tmp "bad.sexp" in
      let oc = open_out file in
      output_string oc "(schedule bad\n  (phase p (crash (limit 1) (nodes 9))))\n";
      close_out oc;
      let code, out, err = run_cli [ "check"; "pysyncobj"; "--faults"; file ] in
      Alcotest.(check int) "exit 2" 2 code;
      check_contains "stderr names the clause" err "node 9 out of range";
      Alcotest.(check string) "stdout clean" "" out)

let test_faults_command_lists_and_guards () =
  let code, out, _ = run_cli [ "faults" ] in
  Alcotest.(check int) "listing exits 0" 0 code;
  check_contains "lists a named schedule" out "leader-partition";
  (* inspecting a schedule prints its canonical source and merged budget *)
  let code, out, _ =
    run_cli [ "faults"; "pysyncobj"; "--faults"; "leader-partition" ]
  in
  Alcotest.(check int) "inspect exits 0" 0 code;
  check_contains "canonical source" out "(schedule leader-partition";
  check_contains "identity key in merged budget" out "faults.id";
  (* a schedule with no enabled fault events is rejected: exit 2 *)
  with_tmpdir (fun tmp ->
      let file = Filename.concat tmp "noop.sexp" in
      let oc = open_out file in
      output_string oc "(schedule idle (phase p))\n";
      close_out oc;
      let code, _, err = run_cli [ "faults"; "pysyncobj"; "--faults"; file ] in
      Alcotest.(check int) "no-op schedule exits 2" 2 code;
      check_contains "stderr explains" err "zero enabled fault events")

let count_occurrences haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i n =
    if i + nl > hl then n
    else if String.sub haystack i nl = needle then go (i + nl) (n + 1)
    else go (i + 1) n
  in
  go 0 0

let test_ws_outcome_printed_once () =
  let code, out, err =
    run_cli [ "check"; "pysyncobj"; "-j"; "2"; "--max-states"; "2000" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check int) "one distinct= line across stdout and stderr" 1
    (count_occurrences (out ^ err) "distinct=");
  check_contains "the outcome is on stdout" out "distinct=";
  check_contains "the engine's figures are on stderr" err "work-stealing"

(* --strict-bfs runs the sequential engine whatever -j, so -j 2 must
   reproduce -j 1 exactly: the same counters at an early stop and the
   same counterexample, recorded as a sequential run. *)
let test_strict_bfs_matches_j1 () =
  let engine dir =
    match Store.Manifest.load ~dir with
    | Ok m -> m.Store.Manifest.m_engine
    | Error e -> Alcotest.failf "manifest in %s: %s" dir e
  in
  (* the wall time is the one field allowed to differ *)
  let without_duration s =
    String.split_on_char ' ' s
    |> List.filter (fun w -> not (String.starts_with ~prefix:"duration=" w))
    |> String.concat " "
  in
  let run_both args =
    with_tmpdir (fun tmp ->
        let run j =
          let dir = Filename.concat tmp ("j" ^ j) in
          let code, out, _ =
            run_cli (args @ [ "--strict-bfs"; "-j"; j; "--run-dir"; dir ])
          in
          Alcotest.(check string) ("-j " ^ j ^ " engine") "seq" (engine dir);
          let trace = Filename.concat dir "trace.bin" in
          (code, without_duration out,
           if Sys.file_exists trace then Some (slurp trace) else None)
        in
        (run "1", run "2"))
  in
  let (c1, o1, _), (c2, o2, _) =
    run_both [ "check"; "pysyncobj"; "--max-states"; "50000" ]
  in
  Alcotest.(check int) "budget stop exits 0" 0 c1;
  Alcotest.(check int) "same exit" c1 c2;
  check_contains "stopped on the budget" o1 "budget spent";
  Alcotest.(check string) "same counters at the budget stop" o1 o2;
  let (c1, o1, t1), (c2, o2, t2) =
    run_both [ "check"; "daosraft"; "--bugs"; "daos1" ]
  in
  Alcotest.(check int) "violation exits 1" 1 c1;
  Alcotest.(check int) "same exit" c1 c2;
  Alcotest.(check string) "same stdout" o1 o2;
  Alcotest.(check bool) "a trace was saved" true (t1 <> None);
  Alcotest.(check bool) "byte-identical saved trace" true (t1 = t2)

let suite =
  ( "cli",
    [ case "systems listing" test_systems_listing;
      case "unknown system: exit 2" test_unknown_system_usage;
      case "unknown flag: exit 2" test_unknown_flag_usage;
      case "check+shrink+runs+stats round trip" test_check_finds_bug_and_records;
      case "clean check: exit 0" test_clean_check_exit_zero;
      case "stats compare/follow round trip" test_stats_compare_and_follow;
      case "bad cadence flags: exit 2" test_bad_cadence_usage;
      case "stats on missing dir: exit 2" test_stats_missing_dir_usage;
      case "shrink on missing dir: exit 2" test_shrink_missing_dir_usage;
      case "unknown fault schedule: exit 2" test_faults_unknown_schedule_usage;
      case "fault schedule compile error: exit 2" test_faults_compile_error_usage;
      case "faults command lists and guards" test_faults_command_lists_and_guards;
      case "ws check prints the outcome once" test_ws_outcome_printed_once;
      case "--strict-bfs -j 2 equals -j 1" test_strict_bfs_matches_j1 ] )
