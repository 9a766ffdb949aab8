(* lib/faults: concrete-syntax round-trips and parse errors, compiler
   validation, budget reconciliation (merge + faults.id identity), the
   proper_groups canonical-cut property, plan-driven enumeration semantics
   on a synthetic spec (phases, selectors, caps, sampling, heal modes,
   timeout restriction), legacy-budget equivalence on real systems,
   worker-count determinism of schedule-driven runs, shrink replay under a
   recorded schedule, clock skew at the implementation level, and the
   manifest v4 schedule identity surface. *)

open Sandtable
module Sched = Faults.Schedule
module Compile = Faults.Compile
module R = Systems.Registry

let case name f = Alcotest.test_case name `Quick f

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let compile_exn ~nodes sched = ok_exn (Compile.to_plan ~nodes sched)
let apply_exn sched scenario = ok_exn (Compile.apply sched scenario)

(* ---- concrete syntax --------------------------------------------------- *)

let test_registry_roundtrip () =
  (* every named schedule prints to canonical syntax that parses back to
     the same canonical form (the manifest identity is a fixpoint) *)
  List.iter
    (fun sys ->
      List.iter
        (fun (name, sched) ->
          let src = Sched.to_string sched in
          match Sched.parse src with
          | Error e -> Alcotest.failf "%s/%s: reparse failed: %s" sys.R.name name e
          | Ok sched' ->
            Alcotest.(check string)
              (Fmt.str "%s/%s fixpoint" sys.R.name name)
              src (Sched.to_string sched'))
        sys.R.fault_schedules)
    R.all

let test_parse_comments_and_whitespace () =
  let src =
    "; a schedule with comments\n\
     (schedule commented ; trailing\n\
     \  (phase only ; the single phase\n\
     \    (crash (limit 1))))\n"
  in
  match Sched.parse src with
  | Error e -> Alcotest.failf "comments rejected: %s" e
  | Ok t ->
    Alcotest.(check string) "name" "commented" t.Sched.name;
    Alcotest.(check int) "phases" 1 (List.length t.Sched.phases)

let test_parse_errors () =
  let bad =
    [ "", "empty input";
      "(schedule", "unbalanced parens";
      "(sched x (phase p (crash (limit 1))))", "wrong head atom";
      "(schedule x)", "no phases";
      "(schedule x (phase p (crash)))", "crash without limit";
      "(schedule x (phase p (crash (limit many))))", "non-integer limit";
      "(schedule x (phase p (frobnicate (limit 1))))", "unknown clause";
      "(schedule x (phase p (heal sometimes)))", "unknown heal mode";
      "(schedule x (phase p (until timeouts)))", "until without count" ]
  in
  List.iter
    (fun (src, why) ->
      match Sched.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s: %S" why src)
    bad

(* ---- compiler validation ----------------------------------------------- *)

let one_phase faults = [ Sched.phase "only" faults ]

let test_compile_errors () =
  let reject why sched =
    match Compile.to_plan ~nodes:3 sched with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "compiled %s" why
  in
  reject "node out of range"
    (Sched.schedule "s" (one_phase [ Sched.crash ~sel:(Sched.Picked [ 3 ]) 1 ]));
  reject "duplicate phase labels"
    (Sched.schedule "s"
       [ Sched.phase ~until:(Sched.after "timeouts" 1) "p" [];
         Sched.phase "p" [ Sched.crash 1 ] ]);
  reject "non-final phase without until"
    (Sched.schedule "s"
       [ Sched.phase "a" []; Sched.phase "b" [ Sched.crash 1 ] ]);
  reject "unknown trigger counter"
    (Sched.schedule "s"
       [ Sched.phase ~until:(Sched.after "bogons" 1) "a" [];
         Sched.phase "b" [ Sched.crash 1 ] ]);
  reject "group missing node 0"
    (Sched.schedule "s"
       (one_phase [ Sched.partition ~groups:(Sched.Explicit [ [ 1 ] ]) 1 ]));
  reject "improper group (all nodes)"
    (Sched.schedule "s"
       (one_phase
          [ Sched.partition ~groups:(Sched.Explicit [ [ 0; 1; 2 ] ]) 1 ]));
  reject "zero sample bound"
    (Sched.schedule "s" (one_phase [ Sched.crash ~sample:0 2 ]));
  reject "skew node out of range"
    (Sched.schedule ~skew:[ 5, 10 ] "s" (one_phase [ Sched.crash 1 ]));
  reject "negative skew"
    (Sched.schedule ~skew:[ 1, -4 ] "s" (one_phase [ Sched.crash 1 ]))

let test_cumulative_caps () =
  (* per-phase limits lower to running totals *)
  let plan =
    compile_exn ~nodes:3
      (Sched.schedule "caps"
         [ Sched.phase ~until:(Sched.after "crashes" 1) "a" [ Sched.crash 1 ];
           Sched.phase "b" [ Sched.crash 2; Sched.restart 1 ] ])
  in
  let cap rule = (Option.get rule).Fault_plan.r_cap in
  (match plan.Fault_plan.pl_phases with
  | [ a; b ] ->
    Alcotest.(check int) "phase a crash cap" 1 (cap a.Fault_plan.ph_crash);
    Alcotest.(check int) "phase b crash cap" 3 (cap b.Fault_plan.ph_crash);
    Alcotest.(check bool) "phase a restarts disabled" true
      (a.Fault_plan.ph_restart = None);
    Alcotest.(check int) "phase b restart cap" 1 (cap b.Fault_plan.ph_restart)
  | _ -> Alcotest.fail "expected two phases");
  Alcotest.(check (list string))
    "enabled kinds" [ "crash"; "restart" ]
    (Fault_plan.enabled_kinds plan)

let test_apply_budget_merge () =
  let sched =
    Sched.schedule "merge"
      [ Sched.phase ~until:(Sched.after "crashes" 2) "a" [ Sched.crash 2 ];
        Sched.phase "b" [ Sched.crash 1; Sched.drop 2 ] ]
  in
  let scenario =
    Scenario.v ~name:"m" ~nodes:3 ~workload:[ 1 ]
      [ "timeouts", 4; "crashes", 1 ]
  in
  let applied = apply_exn sched scenario in
  ok_exn (Scenario.validate applied);
  (* crashes raised to the plan's total cap; untouched keys survive; the
     schedule digest is recorded under the identity key *)
  Alcotest.(check int) "crashes raised" 3
    (Scenario.budget_get applied.budget "crashes" ~default:0);
  Alcotest.(check int) "drops added" 2
    (Scenario.budget_get applied.budget "drops" ~default:0);
  Alcotest.(check int) "timeouts untouched" 4
    (Scenario.budget_get applied.budget "timeouts" ~default:0);
  let plan = Option.get applied.faults in
  Alcotest.(check int) "identity key = digest"
    (Fault_plan.digest plan)
    (Scenario.budget_get applied.budget "faults.id" ~default:(-1));
  (* re-parsing the recorded source and re-applying reproduces the digest:
     the manifest's m_faults string is enough to rebuild the scenario *)
  let replayed =
    apply_exn (ok_exn (Sched.parse plan.Fault_plan.pl_src)) scenario
  in
  Alcotest.(check int) "digest stable through source round-trip"
    (Fault_plan.digest plan)
    (Fault_plan.digest (Option.get replayed.faults))

let test_noop_plan_detected () =
  let plan =
    compile_exn ~nodes:3 (Sched.schedule "idle" (one_phase []))
  in
  Alcotest.(check bool) "no-op" true (Fault_plan.is_noop plan);
  let armed =
    compile_exn ~nodes:3 (Sched.schedule "armed" (one_phase [ Sched.dup 1 ]))
  in
  Alcotest.(check bool) "dup arms the plan" false (Fault_plan.is_noop armed);
  let skewed =
    compile_exn ~nodes:3
      (Sched.schedule ~skew:[ 1, 10 ] "skewed" (one_phase []))
  in
  Alcotest.(check bool) "skew arms the plan" false (Fault_plan.is_noop skewed)

(* ---- scenario budget hygiene (closed key set, identity keys) ----------- *)

let test_scenario_validation () =
  let v budget = Scenario.v ~name:"v" ~nodes:2 ~workload:[ 1 ] budget in
  ok_exn (Scenario.validate (v [ "timeouts", 3; "faults.id", 42 ]));
  (match Scenario.validate (v [ "timeuots", 3 ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "typo'd key accepted");
  (match Scenario.validate (v [ "timeouts", -1 ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative bound accepted");
  Alcotest.(check (list (pair string int)))
    "double skips identity keys"
    [ "timeouts", 6; "faults.id", 42 ]
    (Scenario.double [ "timeouts", 3; "faults.id", 42 ])

(* ---- proper_groups: one canonical representative per two-sided cut ----- *)

let test_proper_groups_canonical () =
  for n = 2 to 6 do
    let groups = Envgen.proper_groups n in
    (* each group is a proper nonempty subset containing node 0, with
       members in range and strictly increasing (canonical order) *)
    List.iter
      (fun g ->
        Alcotest.(check bool) (Fmt.str "n=%d contains 0" n) true
          (List.mem 0 g);
        Alcotest.(check bool) (Fmt.str "n=%d proper" n) true
          (List.length g >= 1 && List.length g < n);
        Alcotest.(check bool) (Fmt.str "n=%d in range" n) true
          (List.for_all (fun i -> i >= 0 && i < n) g);
        let sorted = List.sort_uniq compare g in
        Alcotest.(check bool) (Fmt.str "n=%d no duplicates" n) true
          (List.length sorted = List.length g))
      groups;
    (* exactly one representative per two-sided cut: the side containing
       node 0 determines the cut, so distinct groups = distinct cuts, and
       there are 2^(n-1) - 1 of them *)
    let keys =
      List.sort_uniq compare
        (List.map (fun g -> List.sort compare g) groups)
    in
    Alcotest.(check int) (Fmt.str "n=%d distinct" n) (List.length groups)
      (List.length keys);
    Alcotest.(check int)
      (Fmt.str "n=%d count = 2^(n-1)-1" n)
      ((1 lsl (n - 1)) - 1)
      (List.length groups)
  done

(* ---- a synthetic failure-event spec, for enumeration semantics --------- *)

type fstate = { up : bool array; cut : int list option; c : Counters.t }

let fault_ops : fstate Envgen.ops =
  { counters = (fun s -> s.c);
    with_counters = (fun s c -> { s with c });
    node_count = (fun s -> Array.length s.up);
    alive = (fun s i -> s.up.(i));
    fully_connected = (fun s -> s.cut = None);
    crash = (fun s i -> { s with up = Arr.update s.up i (fun _ -> false) });
    restart = (fun s i -> { s with up = Arr.update s.up i (fun _ -> true) });
    partition = (fun s g -> { s with cut = Some g });
    heal = (fun s -> { s with cut = None });
    (* node 0 is the leader while alive *)
    leader = (fun s -> if s.up.(0) then Some 0 else None) }

module Fault_toy = struct
  type state = fstate

  let name = "faulttoy"

  let init (scenario : Scenario.t) =
    [ { up = Array.make scenario.nodes true; cut = None; c = Counters.zero } ]

  let next (scenario : Scenario.t) st =
    let ticks =
      List.filter_map
        (fun node ->
          if
            st.up.(node)
            && st.c.Counters.timeouts
               < Scenario.budget_get scenario.budget "timeouts" ~default:0
            && Envgen.timeout_allowed fault_ops scenario st ~node
          then
            let event = Trace.Timeout { node; kind = "tick" } in
            Some (event, { st with c = Counters.bump st.c event })
          else None)
        (List.init (Array.length st.up) Fun.id)
    in
    ticks @ Envgen.failure_events fault_ops scenario st

  let constraint_ok (scenario : Scenario.t) st =
    Counters.within st.c scenario.budget

  let invariants = [ ("LeaderUp", fun (_ : Scenario.t) st -> st.up.(0)) ]

  let observe st =
    Tla.Value.record
      [ ( "up",
          Tla.Value.seq
            (Array.to_list (Array.map Tla.Value.bool st.up)) );
        ( "cut",
          Tla.Value.seq
            (List.map Tla.Value.int (Option.value st.cut ~default:[])) ) ]

  let permutable = false
  let permute _ st = st

  let pp_state ppf st =
    Fmt.pf ppf "up=%a cut=%a"
      Fmt.(Dump.array bool)
      st.up
      Fmt.(Dump.option (Dump.list int))
      st.cut
end

let fault_toy : Spec.t = (module Fault_toy)

let toy_scenario ?faults budget =
  Scenario.v ?faults ~name:"faulttoy" ~nodes:3 ~workload:[ 1 ] budget

let init_state nodes = { up = Array.make nodes true; cut = None; c = Counters.zero }

let events sc st =
  List.map (fun (e, _) -> Trace.serialize_event e)
    (Envgen.failure_events fault_ops sc st)

let test_plan_phase_semantics () =
  (* quiet phase: no faults until a timeout fires; then leader-only crash;
     healing only after two timeouts *)
  let sched =
    Sched.schedule "staged"
      [ Sched.phase ~until:(Sched.after "timeouts" 1) "quiet" [];
        Sched.phase ~until:(Sched.after "crashes" 1) "kill"
          [ Sched.crash ~sel:Sched.Leader 1;
            Sched.partition ~groups:Sched.Isolate_leader 1;
            Sched.heal (Sched.After_trigger (Sched.after "timeouts" 2)) ];
        Sched.phase "after" [ Sched.restart 1 ] ]
  in
  let sc = apply_exn sched (toy_scenario [ "timeouts", 3 ]) in
  let st0 = init_state 3 in
  Alcotest.(check (list string)) "quiet phase enumerates nothing" [] (events sc st0);
  let tick node st =
    { st with c = Counters.bump st.c (Trace.Timeout { node; kind = "tick" }) }
  in
  let st1 = tick 1 st0 in
  (* leader alive: crash targets node 0 only; isolate-leader with leader 0
     yields the canonical [[0]] cut *)
  Alcotest.(check (list string)) "kill phase: leader crash + leader cut"
    [ Trace.serialize_event (Trace.Crash { node = 0 });
      Trace.serialize_event (Trace.Partition { group = [ 0 ] }) ]
    (events sc st1);
  (* once partitioned, heal is withheld until the second timeout *)
  let cut = { st1 with cut = Some [ 0 ];
                       c = Counters.bump st1.c (Trace.Partition { group = [ 0 ] }) } in
  Alcotest.(check (list string)) "heal withheld before trigger"
    [ Trace.serialize_event (Trace.Crash { node = 0 }) ]
    (events sc cut);
  Alcotest.(check (list string)) "heal released by trigger"
    [ Trace.serialize_event (Trace.Crash { node = 0 });
      Trace.serialize_event Trace.Heal ]
    (events sc (tick 2 cut));
  (* after the crash the third phase is active: restarts only *)
  let crashed =
    { st1 with up = [| false; true; true |];
               c = Counters.bump st1.c (Trace.Crash { node = 0 }) }
  in
  Alcotest.(check (list string)) "final phase restarts the dead node"
    [ Trace.serialize_event (Trace.Restart { node = 0 }) ]
    (events sc crashed)

let test_timeout_restriction () =
  let sched =
    Sched.schedule "quiet-followers"
      (one_phase [ Sched.timeouts ~sel:(Sched.Picked [ 0 ]) 1 ])
  in
  let sc = apply_exn sched (toy_scenario [ "timeouts", 3 ]) in
  let st = init_state 3 in
  Alcotest.(check bool) "selected node may fire" true
    (Envgen.timeout_allowed fault_ops sc st ~node:0);
  Alcotest.(check bool) "unselected node may not" false
    (Envgen.timeout_allowed fault_ops sc st ~node:1);
  let after_one =
    { st with c = Counters.bump st.c (Trace.Timeout { node = 0; kind = "t" }) }
  in
  Alcotest.(check bool) "cap exhausts the allowance" false
    (Envgen.timeout_allowed fault_ops sc after_one ~node:0)

let test_sampling_deterministic () =
  (* a sample bound keeps a stable strict subset, identical across calls *)
  let sched =
    Sched.schedule ~seed:9 "sampled" (one_phase [ Sched.crash ~sample:2 3 ])
  in
  let sc = apply_exn sched (toy_scenario [ "timeouts", 1 ]) in
  let st = init_state 3 in
  let first = events sc st in
  Alcotest.(check int) "bound respected" 2 (List.length first);
  Alcotest.(check (list string)) "stable across calls" first (events sc st);
  (* a different seed is allowed to pick a different subset, but must be
     equally stable *)
  let sched' =
    Sched.schedule ~seed:10 "sampled" (one_phase [ Sched.crash ~sample:2 3 ])
  in
  let sc' = apply_exn sched' (toy_scenario [ "timeouts", 1 ]) in
  Alcotest.(check (list string)) "other seed stable"
    (events sc' st) (events sc' st)

let test_failure_events_within_budget () =
  (* exhaustive closure over fault events: no reachable state exceeds the
     fault budget, with or without a plan attached *)
  let scenarios =
    [ toy_scenario
        [ "timeouts", 2; "crashes", 2; "restarts", 1; "partitions", 1 ];
      apply_exn
        (Sched.of_budget
           [ "crashes", 2; "restarts", 1; "partitions", 1 ])
        (toy_scenario
           [ "timeouts", 2; "crashes", 2; "restarts", 1; "partitions", 1 ])
    ]
  in
  List.iter
    (fun sc ->
      let seen = Hashtbl.create 64 in
      let rec walk st =
        let key = Fmt.str "%a" Fault_toy.pp_state st ^ Fmt.str "%a" Counters.pp st.c in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          List.iter
            (fun (_, st') ->
              Alcotest.(check bool) "within budget" true
                (Counters.within st'.c sc.Scenario.budget);
              walk st')
            (Envgen.failure_events fault_ops sc st)
        end
      in
      walk (init_state 3);
      Alcotest.(check bool) "explored some states" true (Hashtbl.length seen > 1))
    scenarios

(* ---- shrink replay under the recorded schedule ------------------------- *)

let test_shrink_replays_under_schedule () =
  (* the crash that kills the leader is only enabled in the second phase,
     so the minimized trace must keep the phase-advancing timeout: ddmin
     candidates that elide it fail replay validation under the plan *)
  let sched =
    Sched.schedule "staged-kill"
      [ Sched.phase ~until:(Sched.after "timeouts" 1) "quiet" [];
        Sched.phase "kill" [ Sched.crash ~sel:Sched.Leader 1 ] ]
  in
  let scenario = apply_exn sched (toy_scenario [ "timeouts", 3 ]) in
  let r = Explorer.check fault_toy scenario Explorer.default in
  match r.outcome with
  | Explorer.Violation v ->
    Alcotest.(check string) "violated invariant" "LeaderUp" v.invariant;
    let o = Shrink.run fault_toy scenario (Shrink.Invariant v.invariant) v.events in
    Alcotest.(check int) "minimal length keeps the phase trigger" 2
      o.Shrink.minimized_len;
    (match o.Shrink.minimized with
    | [ Trace.Timeout _; Trace.Crash { node = 0 } ] -> ()
    | t -> Alcotest.failf "unexpected minimized trace: %s" (Trace.to_string t));
    Alcotest.(check bool) "minimized replays under the schedule" true
      (Spec.observations_along fault_toy scenario o.Shrink.minimized <> None)
  | _ -> Alcotest.fail "expected a LeaderUp violation"

(* ---- legacy-budget equivalence on real systems ------------------------- *)

let shrink_budget budget =
  List.map
    (fun (k, v) ->
      match k with
      | "timeouts" -> (k, min v 2)
      | "requests" -> (k, min v 1)
      | _ -> (k, v))
    budget

let test_of_budget_equivalence () =
  (* the single-phase schedule encoding a flat budget explores exactly the
     legacy state space (acceptance criterion; two TCP systems, one UDP) *)
  List.iter
    (fun name ->
      let sys = R.find name in
      let spec = sys.R.spec (R.flags_of sys []) in
      let scenario =
        { sys.R.default_scenario with
          Scenario.budget = shrink_budget sys.R.default_scenario.budget }
      in
      let plain = Explorer.check spec scenario Explorer.default in
      let planned =
        Explorer.check spec
          (apply_exn (Sched.of_budget scenario.budget) scenario)
          Explorer.default
      in
      Alcotest.(check int) (name ^ " distinct") plain.distinct planned.distinct;
      Alcotest.(check int) (name ^ " generated") plain.generated planned.generated;
      Alcotest.(check int) (name ^ " max_depth") plain.max_depth planned.max_depth;
      Alcotest.(check bool) (name ^ " nontrivial") true (plain.distinct > 10))
    [ "pysyncobj"; "raftos"; "xraft" ]

(* ---- schedule-driven runs are identical at any worker count ------------ *)

let test_workers_determinism_under_schedule () =
  let sys = R.find "pysyncobj" in
  let spec = sys.R.spec (R.flags_of sys []) in
  let scenario =
    { sys.R.default_scenario with
      Scenario.budget = shrink_budget sys.R.default_scenario.budget }
  in
  let scenario =
    apply_exn (Option.get (R.schedule_of sys "leader-partition")) scenario
  in
  let run workers =
    let obs = Obs.Run.create ~workers () in
    let opts = { Explorer.default with probe = Obs.Run.probe obs } in
    let result =
      if workers = 1 then Explorer.check spec scenario opts
      else (Par.Ws_explorer.check ~workers spec scenario opts).Par.Ws_explorer.base
    in
    let summary =
      Obs.Run.finish obs ~outcome:"exhausted" ~distinct:result.Explorer.distinct
        ~generated:result.Explorer.generated ~max_depth:result.Explorer.max_depth
        ~duration:result.Explorer.duration ()
    in
    let faults =
      List.filter
        (fun (name, _) -> String.length name > 6 && String.sub name 0 6 = "fault.")
        summary.Obs.Run.s_metrics.Obs.Metrics.s_counters
    in
    (result.Explorer.distinct, result.Explorer.generated, faults)
  in
  let d1, g1, f1 = run 1 in
  Alcotest.(check bool) "schedule produced fault events" true
    (List.exists (fun (_, v) -> v > 0) f1);
  List.iter
    (fun j ->
      let d, g, f = run j in
      Alcotest.(check int) (Fmt.str "j%d distinct" j) d1 d;
      Alcotest.(check int) (Fmt.str "j%d generated" j) g1 g;
      Alcotest.(check (list (pair string int))) (Fmt.str "j%d fault counters" j) f1 f)
    [ 2; 4 ]

(* ---- clock skew reaches the implementation's virtual clocks ------------ *)

let clock_boot : Engine.Syscall.boot =
 fun ctx ->
  { Engine.Syscall.handle_message = (fun ~src:_ _ -> ());
    on_timeout = (fun ~kind:_ -> ());
    on_client = (fun ~op:_ -> ());
    observe = (fun () -> Tla.Value.record [ "now", Tla.Value.int (ctx.now_us ()) ]) }

let node_now cluster i =
  match Engine.Cluster.observe_node cluster i with
  | Some v -> (
    match Tla.Value.field v "now" with
    | Some (Tla.Value.Int us) -> us
    | _ -> Alcotest.fail "no clock observation")
  | None -> Alcotest.fail "node down"

let test_cluster_clock_skew () =
  let mk clock_skew_ms =
    Engine.Cluster.create
      { Engine.Cluster.nodes = 2;
        semantics = Spec_net.Tcp;
        timeouts = [];
        clock_skew_ms;
        cost = Engine.Cost.profile ();
        boot = clock_boot }
  in
  let plain = mk [] and skewed = mk [ 1, 40 ] in
  let base_delta = node_now plain 1 - node_now plain 0 in
  let skew_delta = node_now skewed 1 - node_now skewed 0 in
  (* 40ms of skew = 40_000µs, on top of whatever read-increment offset the
     synchronized cluster exhibits *)
  Alcotest.(check int) "40ms ahead" 40_000 (skew_delta - base_delta)

(* ---- manifest v4: the schedule identity surface ------------------------ *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "sandtable-faults" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_manifest_v4_roundtrip () =
  with_tmpdir @@ fun dir ->
  let src =
    Sched.to_string (Option.get (R.schedule_of (R.find "pysyncobj") "leader-partition"))
  in
  let m =
    { (Store.Manifest.make ~system:"pysyncobj" ~scenario:"default"
         ~identity:"abc" ~engine:"seq" ~workers:1 ~flags:[] ())
      with Store.Manifest.m_faults = Some src }
  in
  Alcotest.(check int) "current schema" Store.Manifest.version
    m.Store.Manifest.m_version;
  Store.Manifest.save ~dir m;
  (match Store.Manifest.load ~dir with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok m' ->
    Alcotest.(check (option string)) "schedule source survives" (Some src)
      m'.Store.Manifest.m_faults;
    (* and the stored source still parses to the same canonical form *)
    Alcotest.(check string) "stored source is canonical" src
      (Sched.to_string (ok_exn (Sched.parse (Option.get m'.Store.Manifest.m_faults)))));
  (* a manifest without the field — any pre-v4 file — loads with None *)
  let dir_old = Filename.concat dir "old" in
  Store.Manifest.save ~dir:dir_old
    { m with Store.Manifest.m_faults = None };
  match Store.Manifest.load ~dir:dir_old with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok m' ->
    Alcotest.(check (option string)) "absent field loads as None" None
      m'.Store.Manifest.m_faults

let suite =
  ( "faults",
    [ case "registry schedules round-trip canonically" test_registry_roundtrip;
      case "comments and whitespace" test_parse_comments_and_whitespace;
      case "parse errors name the offence" test_parse_errors;
      case "compiler validation" test_compile_errors;
      case "per-phase limits lower to cumulative caps" test_cumulative_caps;
      case "apply merges budget and records identity" test_apply_budget_merge;
      case "no-op plans are detected" test_noop_plan_detected;
      case "budget key set is closed" test_scenario_validation;
      case "proper_groups: one representative per cut" test_proper_groups_canonical;
      case "phase structure gates enumeration" test_plan_phase_semantics;
      case "timeout restriction" test_timeout_restriction;
      case "sampling is deterministic" test_sampling_deterministic;
      case "failure events stay within budget" test_failure_events_within_budget;
      case "shrink replays under the recorded schedule"
        test_shrink_replays_under_schedule;
      case "of_budget schedule = legacy state space" test_of_budget_equivalence;
      case "identical at -j1/-j2/-j4 under a schedule"
        test_workers_determinism_under_schedule;
      case "clock skew reaches implementation clocks" test_cluster_clock_skew;
      case "manifest v4 records the schedule" test_manifest_v4_roundtrip ] )
