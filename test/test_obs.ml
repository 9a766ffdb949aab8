(* lib/obs: metric merge determinism across worker counts, Chrome
   trace-event output validity and per-tid span nesting, events.ndjsonl
   agreement with explorer counters, stats-reader tolerance of v1 run
   directories, manifest v2 metrics roundtrip. *)

open Sandtable

let case name f = Alcotest.test_case name `Quick f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "sandtable-obs" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let spec = Toy_spec.spec ()
let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:4

let check_with_workers ?dir ?trace_out workers =
  let obs = Obs.Run.create ~workers ?dir ?trace_out () in
  let opts = { Explorer.default with probe = Obs.Run.probe obs } in
  let result =
    if workers = 1 then Explorer.check spec scenario opts
    else (Par.Ws_explorer.check ~workers spec scenario opts).base
  in
  let summary =
    Obs.Run.finish obs ~outcome:"exhausted" ~distinct:result.distinct
      ~generated:result.generated ~max_depth:result.max_depth
      ~duration:result.duration ()
  in
  (result, summary)

(* ---- metrics: deterministic across -j --------------------------------- *)

let test_merge_determinism () =
  let runs =
    List.map
      (fun j ->
        let result, summary = check_with_workers j in
        (j, result, summary))
      [ 1; 2; 4 ]
  in
  let _, r1, s1 = List.hd runs in
  (* every counter about the exploration, including the perm-cache
     hit/miss split: engines count only lookups (a deterministic total)
     and Run.finish derives the split as lookups − 1 hits / 1 cold miss.
     The work-stealing engine's own steal.* counters describe its schedule
     and have no sequential counterpart. Layer records and the peak
     frontier are sampled at schedule-dependent pulses, so they are not
     compared either. *)
  let stable (s : Obs.Run.summary) =
    List.filter
      (fun (name, _) -> not (String.starts_with ~prefix:"steal." name))
      s.s_metrics.Obs.Metrics.s_counters
  in
  List.iter
    (fun (j, r, s) ->
      Alcotest.(check int) (Fmt.str "j%d distinct" j) r1.Explorer.distinct
        r.Explorer.distinct;
      Alcotest.(check int) (Fmt.str "j%d generated" j) r1.Explorer.generated
        r.Explorer.generated;
      Alcotest.(check (list (pair string int)))
        (Fmt.str "j%d counters" j)
        (stable s1) (stable s))
    (List.tl runs)

let test_dup_counter_accounts_for_generated () =
  (* on an exhaustive run every generated state is either a distinct
     insertion or a duplicate hit, at any worker count; distinct also
     counts the one root state, which is discovered rather than generated *)
  let roots = 1 in
  List.iter
    (fun j ->
      let result, summary = check_with_workers j in
      let dups = Obs.Metrics.counter summary.Obs.Run.s_metrics "fp.dup" in
      Alcotest.(check int)
        (Fmt.str "j%d distinct + dups = generated + roots" j)
        (result.Explorer.generated + roots)
        (result.Explorer.distinct + dups))
    [ 1; 3 ]

(* ---- trace: valid JSON, spans nest per tid ---------------------------- *)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_trace_valid_and_nested () =
  with_tmpdir (fun dir ->
      let trace_out = Filename.concat dir "trace.json" in
      let _ = check_with_workers ~trace_out 4 in
      let json =
        match Store.Sjson.of_string (read_whole trace_out) with
        | Ok j -> j
        | Error m -> Alcotest.failf "trace is not valid JSON: %s" m
      in
      let events =
        match
          Option.bind (Store.Sjson.member "traceEvents" json)
            Store.Sjson.to_list
        with
        | Some l -> l
        | None -> Alcotest.fail "trace has no traceEvents array"
      in
      Alcotest.(check bool) "has events" true (List.length events > 0);
      let str j name =
        Option.bind (Store.Sjson.member name j) Store.Sjson.to_str
      in
      let num j name =
        Option.bind (Store.Sjson.member name j) Store.Sjson.to_num
      in
      let spans =
        List.filter_map
          (fun e ->
            if str e "ph" = Some "X" then
              match (num e "tid", num e "ts", num e "dur") with
              | Some tid, Some ts, Some dur ->
                Alcotest.(check bool) "ts >= 0" true (ts >= 0.);
                Alcotest.(check bool) "dur >= 0" true (dur >= 0.);
                Some (int_of_float tid, ts, dur)
              | _ -> Alcotest.fail "X event missing tid/ts/dur"
            else begin
              (* only metadata events besides complete spans *)
              Alcotest.(check (option string)) "meta" (Some "M") (str e "ph");
              None
            end)
          events
      in
      let tids = List.sort_uniq compare (List.map (fun (t, _, _) -> t) spans) in
      (* a work-stealing worker that starts after the tiny space drained
         records no span (worker 0 included), so the lanes are some
         nonempty subset of the workers *)
      Alcotest.(check bool) "one lane per active worker" true
        (tids <> [] && List.for_all (fun t -> t >= 0 && t < 4) tids);
      (* within a tid, spans sorted by start either nest or are disjoint
         (sub-10µs fuzz tolerated: endpoints come from separate
         gettimeofday calls) *)
      let fuzz = 10. in
      List.iter
        (fun tid ->
          let mine =
            List.sort compare
              (List.filter_map
                 (fun (t, ts, dur) -> if t = tid then Some (ts, dur) else None)
                 spans)
          in
          ignore
            (List.fold_left
               (fun prev (ts, dur) ->
                 (match prev with
                 | Some (pts, pdur) ->
                   let disjoint = ts >= pts +. pdur -. fuzz in
                   let nested = ts +. dur <= pts +. pdur +. fuzz in
                   Alcotest.(check bool)
                     (Fmt.str "tid %d span at %f overlaps predecessor" tid ts)
                     true (disjoint || nested)
                 | None -> ());
                 Some (ts, dur))
               None mine))
        tids)

(* ---- events.ndjsonl vs explorer counters ------------------------------ *)

let test_events_match_result () =
  with_tmpdir (fun dir ->
      let result, summary = check_with_workers ~dir 1 in
      let records =
        match Obs.Events.read_all (Filename.concat dir Obs.Events.file) with
        | Ok r -> r
        | Error m -> Alcotest.failf "events unreadable: %s" m
      in
      let typ r =
        Option.bind (Store.Sjson.member "type" r) Store.Sjson.to_str
      in
      let int_field r name =
        match Option.bind (Store.Sjson.member name r) Store.Sjson.to_int with
        | Some n -> n
        | None -> Alcotest.failf "record missing %s" name
      in
      let layers = List.filter (fun r -> typ r = Some "layer") records in
      Alcotest.(check int) "layer records" summary.Obs.Run.s_layers
        (List.length layers);
      let last = List.nth layers (List.length layers - 1) in
      Alcotest.(check int) "final distinct" result.Explorer.distinct
        (int_field last "distinct");
      Alcotest.(check int) "final generated" result.Explorer.generated
        (int_field last "generated");
      Alcotest.(check int) "final frontier empty" 0 (int_field last "frontier");
      (match List.filter (fun r -> typ r = Some "done") records with
      | [ d ] ->
        Alcotest.(check int) "done distinct" result.Explorer.distinct
          (int_field d "distinct");
        Alcotest.(check int) "done max_depth" result.Explorer.max_depth
          (int_field d "max_depth")
      | l -> Alcotest.failf "expected one done record, found %d" (List.length l));
      (* metrics.json landed too *)
      Alcotest.(check bool) "metrics.json written" true
        (Sys.file_exists (Filename.concat dir Obs.Run.metrics_file)))

(* ---- stats reader on a v1 (pre-observability) run dir ----------------- *)

let v1_manifest =
  {|{
  "version": 1,
  "system": "toy",
  "scenario": "toy-2n",
  "identity": "deadbeef0123",
  "created": "2025-01-01T00:00:00Z",
  "engine": "seq",
  "workers": 1,
  "flags": {},
  "status": "done",
  "outcome": "exhausted",
  "distinct": 42,
  "generated": 99,
  "max_depth": 7,
  "duration_s": 0.5,
  "checkpoints": 0,
  "checkpoint": null,
  "trace": null
}|}

let test_stats_on_v1_run_dir () =
  with_tmpdir (fun dir ->
      let oc = open_out (Filename.concat dir Store.Manifest.file) in
      output_string oc v1_manifest;
      close_out oc;
      let report =
        match Obs.Report.load dir with
        | Ok r -> r
        | Error m -> Alcotest.failf "stats refused v1 run dir: %s" m
      in
      (match report.Obs.Report.rp_manifest with
      | Some (Ok m) ->
        Alcotest.(check int) "v1 version kept" 1 m.Store.Manifest.m_version;
        Alcotest.(check int) "v1 distinct" 42 m.Store.Manifest.m_distinct;
        Alcotest.(check bool) "v1 has no metrics" true
          (m.Store.Manifest.m_metrics = None)
      | _ -> Alcotest.fail "v1 manifest did not load");
      Alcotest.(check bool) "no metrics.json" true
        (report.Obs.Report.rp_metrics = None);
      (* rendering must not raise *)
      let rendered = Fmt.str "%a" Obs.Report.pp report in
      Alcotest.(check bool) "render mentions missing metrics" true
        (String.length rendered > 0))

(* ---- manifest metrics+shrink roundtrip -------------------------------------------- *)

let test_manifest_v3_roundtrip () =
  with_tmpdir (fun dir ->
      let m =
        { (Store.Manifest.make ~system:"toy" ~scenario:"toy-2n"
             ~identity:"cafebabe" ~engine:"par" ~workers:4 ~flags:[] ())
          with
          Store.Manifest.m_status = Store.Manifest.Done;
          m_metrics =
            Some
              { Store.Manifest.mm_states_per_sec = 12345.5;
                mm_peak_frontier = 678;
                mm_barrier_idle_pct = 3.25 };
          m_shrink =
            Some
              { Store.Manifest.ms_original = 54;
                ms_minimized = 12;
                ms_trace = Some "minimized.trace" };
          m_profile =
            Some
              { Store.Manifest.mp_dup_top_source = Some "deliver n1>n2";
                mp_peak_worker_skew_pct = 7.5 }
        }
      in
      Store.Manifest.save ~dir m;
      match Store.Manifest.load ~dir with
      | Error e -> Alcotest.failf "reload failed: %s" e
      | Ok m' ->
        Alcotest.(check int) "version" Store.Manifest.version
          m'.Store.Manifest.m_version;
        (match m'.Store.Manifest.m_metrics with
        | None -> Alcotest.fail "metrics lost on roundtrip"
        | Some mm ->
          Alcotest.(check (float 1e-9)) "states_per_sec" 12345.5
            mm.Store.Manifest.mm_states_per_sec;
          Alcotest.(check int) "peak_frontier" 678
            mm.Store.Manifest.mm_peak_frontier;
          Alcotest.(check (float 1e-9)) "barrier_idle_pct" 3.25
            mm.Store.Manifest.mm_barrier_idle_pct);
        (match m'.Store.Manifest.m_shrink with
        | None -> Alcotest.fail "shrink summary lost on roundtrip"
        | Some s ->
          Alcotest.(check int) "shrink original" 54
            s.Store.Manifest.ms_original;
          Alcotest.(check int) "shrink minimized" 12
            s.Store.Manifest.ms_minimized;
          Alcotest.(check (option string)) "shrink trace"
            (Some "minimized.trace") s.Store.Manifest.ms_trace);
        match m'.Store.Manifest.m_profile with
        | None -> Alcotest.fail "profile summary lost on roundtrip"
        | Some p ->
          Alcotest.(check (option string)) "dup top source"
            (Some "deliver n1>n2") p.Store.Manifest.mp_dup_top_source;
          Alcotest.(check (float 1e-9)) "peak worker skew" 7.5
            p.Store.Manifest.mp_peak_worker_skew_pct)

(* ---- profile: duplicates reconcile with generated − distinct ---------- *)

let reconcile label (r : Explorer.result) (p : Obs.Profile.summary) =
  Alcotest.(check int)
    (label ^ ": generated agrees")
    r.Explorer.generated p.Obs.Profile.p_generated;
  Alcotest.(check int)
    (label ^ ": distinct agrees")
    r.Explorer.distinct p.Obs.Profile.p_distinct;
  Alcotest.(check int)
    (label ^ ": distinct = roots + generated − duplicates")
    (p.Obs.Profile.p_roots + p.Obs.Profile.p_generated
    - p.Obs.Profile.p_duplicates)
    p.Obs.Profile.p_distinct;
  let sum f rows = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Alcotest.(check int)
    (label ^ ": per-depth generated sums")
    p.Obs.Profile.p_generated
    (sum (fun (d : Obs.Profile.depth_row) -> d.pd_generated)
       p.Obs.Profile.p_by_depth);
  Alcotest.(check int)
    (label ^ ": per-depth duplicates sum")
    p.Obs.Profile.p_duplicates
    (sum (fun (d : Obs.Profile.depth_row) -> d.pd_duplicates)
       p.Obs.Profile.p_by_depth);
  Alcotest.(check int)
    (label ^ ": per-event expansions sum to generated")
    p.Obs.Profile.p_generated
    (sum (fun (e : Obs.Profile.event_row) -> e.pe_expansions)
       p.Obs.Profile.p_by_event);
  Alcotest.(check int)
    (label ^ ": per-event duplicates sum")
    p.Obs.Profile.p_duplicates
    (sum (fun (e : Obs.Profile.event_row) -> e.pe_duplicates)
       p.Obs.Profile.p_by_event)

let test_profile_reconciles_and_roundtrips () =
  List.iter
    (fun j ->
      with_tmpdir (fun dir ->
          let result, summary = check_with_workers ~dir j in
          let p = summary.Obs.Run.s_profile in
          reconcile (Fmt.str "j%d" j) result p;
          (* identical shape at every worker count *)
          let p1 =
            let r1, s1 = check_with_workers 1 in
            reconcile "seq" r1 s1.Obs.Run.s_profile;
            s1.Obs.Run.s_profile
          in
          Alcotest.(check int) (Fmt.str "j%d duplicates match seq" j)
            p1.Obs.Profile.p_duplicates p.Obs.Profile.p_duplicates;
          (* expansion attribution is a fact about the state graph (every
             generated edge has a fixed parent event), so it is identical
             at any worker count; which same-layer generator of a shared
             fingerprint gets counted as the duplicate is schedule-
             dependent, so per-event duplicate splits are compared only in
             total *)
          Alcotest.(check bool)
            (Fmt.str "j%d expansion attribution matches seq" j)
            true
            (List.map
               (fun (e : Obs.Profile.event_row) -> (e.pe_key, e.pe_expansions))
               p1.Obs.Profile.p_by_event
            = List.map
                (fun (e : Obs.Profile.event_row) ->
                  (e.pe_key, e.pe_expansions))
                p.Obs.Profile.p_by_event);
          (* finish wrote profile.json; it reloads to the same summary *)
          match Obs.Profile.load ~dir with
          | Error m -> Alcotest.failf "profile.json unreadable: %s" m
          | Ok p' ->
            Alcotest.(check int) "roundtrip distinct"
              p.Obs.Profile.p_distinct p'.Obs.Profile.p_distinct;
            Alcotest.(check (option string)) "roundtrip top source"
              p.Obs.Profile.p_dup_top_source p'.Obs.Profile.p_dup_top_source))
    [ 1; 4 ]

let test_profile_reconciles_all_systems () =
  (* the identity is structural — it must hold on every integrated system,
     including budget-capped runs that stop mid-layer *)
  List.iter
    (fun (sys : Systems.Registry.t) ->
      let spec = sys.spec Systems.Bug.Flags.empty in
      let obs = Obs.Run.create ~workers:1 () in
      let opts =
        { Explorer.default with
          max_states = Some 2000;
          probe = Obs.Run.probe obs }
      in
      let result = Explorer.check spec sys.default_scenario opts in
      let summary =
        Obs.Run.finish obs ~outcome:"test" ~distinct:result.distinct
          ~generated:result.generated ~max_depth:result.max_depth
          ~duration:result.duration ()
      in
      reconcile sys.name result summary.Obs.Run.s_profile)
    Systems.Registry.all

(* ---- events: trailing partial line tolerated, interior corruption not - *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let has_infix hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

let test_events_torn_tail () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "events.ndjsonl" in
      write_file path
        "{\"type\":\"layer\",\"depth\":1}\n{\"type\":\"layer\",\"depth\":2}\n{\"type\":\"lay";
      (match Obs.Events.read_all path with
      | Ok records ->
        Alcotest.(check int) "torn tail: completed records kept" 2
          (List.length records)
      | Error m -> Alcotest.failf "torn tail rejected: %s" m);
      (* corruption with records after it is not a torn tail *)
      write_file path
        "{\"type\":\"layer\",\"depth\":1}\n{oops\n{\"type\":\"layer\",\"depth\":2}\n";
      match Obs.Events.read_all path with
      | Ok _ -> Alcotest.fail "interior corruption accepted"
      | Error m ->
        Alcotest.(check bool) "error cites the line" true (has_infix m ":2:"))

(* ---- progress cadence parsing and ETA --------------------------------- *)

let test_progress_cadence () =
  (match Obs.Progress.parse_cadence "0" with
  | Ok Obs.Progress.Never -> ()
  | _ -> Alcotest.fail "\"0\" should disable");
  (match Obs.Progress.parse_cadence "5000" with
  | Ok (Obs.Progress.Every_states 5000) -> ()
  | _ -> Alcotest.fail "\"5000\" should be a state count");
  (match Obs.Progress.parse_cadence "2s" with
  | Ok (Obs.Progress.Every_seconds 2.) -> ()
  | _ -> Alcotest.fail "\"2s\" should be a duration");
  (match Obs.Progress.parse_cadence "0.5s" with
  | Ok (Obs.Progress.Every_seconds 0.5) -> ()
  | _ -> Alcotest.fail "\"0.5s\" should be a duration");
  (match Obs.Progress.parse_cadence "2x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "\"2x\" should be rejected");
  let line =
    Obs.Progress.line ~label:"check[t]" ~unit_name:"distinct" ~count:250
      ~total:1000 ~elapsed:1.0 ()
  in
  Alcotest.(check bool) "percent rendered" true
    (has_infix line "25% of 1000");
  Alcotest.(check bool) "ETA rendered" true
    (has_infix line "ETA 3s");
  let bare =
    Obs.Progress.line ~label:"check[t]" ~unit_name:"distinct" ~count:250
      ~elapsed:1.0 ()
  in
  Alcotest.(check bool) "no total, no ETA" false
    (has_infix bare "ETA")

(* ---- probe off = same exploration ------------------------------------- *)

let test_probe_off_same_result () =
  let bare = Explorer.check spec scenario Explorer.default in
  let observed, _ = check_with_workers 1 in
  Alcotest.(check int) "distinct" bare.Explorer.distinct
    observed.Explorer.distinct;
  Alcotest.(check int) "generated" bare.Explorer.generated
    observed.Explorer.generated;
  Alcotest.(check int) "max_depth" bare.Explorer.max_depth
    observed.Explorer.max_depth

let suite =
  ( "obs",
    [ case "metric merge is deterministic across -j" test_merge_determinism;
      case "distinct + fp.dup = generated" test_dup_counter_accounts_for_generated;
      case "trace file is valid JSON with nested spans"
        test_trace_valid_and_nested;
      case "events.ndjsonl matches explorer counters" test_events_match_result;
      case "profile reconciles and roundtrips"
        test_profile_reconciles_and_roundtrips;
      case "profile reconciles on every system"
        test_profile_reconciles_all_systems;
      case "events tolerate a torn tail" test_events_torn_tail;
      case "progress cadence parsing and ETA" test_progress_cadence;
      case "stats tolerates v1 run dirs" test_stats_on_v1_run_dir;
      case "manifest metrics+shrink roundtrip" test_manifest_v3_roundtrip;
      case "probe changes nothing about exploration"
        test_probe_off_same_result ] )
