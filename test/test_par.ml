(* The work-stealing engine (lib/par) against the sequential one on
   properties beyond test_ws's totals and verdicts — counterexamples that
   replay, depth budgets that never reach past the sequential frontier, a
   reused pool — plus determinism of parallel simulation and the shard-set
   / pool primitives they build on. Work stealing discovers states out of
   BFS order, so counters are compared only on exhaustive runs. *)

open Sandtable

let case name f = Alcotest.test_case name `Quick f
let worker_counts = [ 1; 2; 4 ]

let check_totals label (seq : Explorer.result) (ws : Par.Ws_explorer.result) =
  Alcotest.(check (pair int int)) label (seq.distinct, seq.generated)
    (ws.base.distinct, ws.base.generated)

(* Replay a counterexample from the (single) init state. *)
let replay spec scenario events =
  let module S = (val spec : Spec.S) in
  let module E = Explorer.Run (S) in
  let final = E.final_state scenario 0 events in
  (Fmt.str "%a" S.pp_state final, List.length (S.next scenario final),
   fun name -> (List.assoc name S.invariants) scenario final)

(* The reported trace is a real counterexample: it replays to the
   reported state, that state breaks the reported invariant, and it is no
   shorter than the sequential engine's minimal-depth one. *)
let check_ws_violation label spec scenario (sv : Explorer.violation)
    (ws : Par.Ws_explorer.result) =
  match ws.base.outcome with
  | Explorer.Violation wv ->
    Alcotest.(check string) (label ^ " invariant") sv.invariant wv.invariant;
    let repr, _, holds = replay spec scenario wv.events in
    Alcotest.(check string) (label ^ " reported state") repr wv.state_repr;
    Alcotest.(check bool) (label ^ " replays to a violation") false
      (holds wv.invariant);
    Alcotest.(check int) (label ^ " depth is the trace length")
      (List.length wv.events) wv.depth;
    Alcotest.(check bool) (label ^ " sequential depth is minimal") true
      (wv.depth >= sv.depth)
  | _ -> Alcotest.failf "%s: work-stealing run must violate" label

let seq_violation spec scenario opts =
  match (Explorer.check spec scenario opts).outcome with
  | Explorer.Violation v -> v
  | _ -> Alcotest.fail "sequential run must violate"

let test_toy_exhaustive_equivalence () =
  (* one pool serves every run: the engine leaves it reusable *)
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:4 in
  let spec = Toy_spec.spec () in
  Par.Pool.with_pool 4 (fun pool ->
      List.iter
        (fun symmetry ->
          let opts = { Explorer.default with symmetry } in
          let seq = Explorer.check spec scenario opts in
          for round = 1 to 3 do
            let ws = Par.Ws_explorer.check ~pool spec scenario opts in
            (match ws.base.outcome with
            | Explorer.Exhausted -> ()
            | _ -> Alcotest.fail "work-stealing run should exhaust");
            check_totals
              (Fmt.str "totals sym=%b round=%d" symmetry round)
              seq ws
          done)
        [ false; true ])

let test_toy_violation_equivalence () =
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:6 in
  let spec = Toy_spec.spec ~limit:3 () in
  let sv = seq_violation spec scenario Explorer.default in
  List.iter
    (fun workers ->
      check_ws_violation (Fmt.str "workers=%d" workers) spec scenario sv
        (Par.Ws_explorer.check ~workers spec scenario Explorer.default))
    worker_counts

let test_toy_deadlock_equivalence () =
  let scenario = Toy_spec.scenario ~nodes:1 ~timeouts:2 in
  let opts = { Explorer.default with check_deadlock = true } in
  let spec = Toy_spec.spec () in
  let se =
    match (Explorer.check spec scenario opts).outcome with
    | Explorer.Deadlock t -> t
    | _ -> Alcotest.fail "sequential run must deadlock"
  in
  List.iter
    (fun workers ->
      match (Par.Ws_explorer.check ~workers spec scenario opts).base.outcome with
      | Explorer.Deadlock we ->
        let l = Fmt.str "workers=%d" workers in
        let _, succs, _ = replay spec scenario we in
        Alcotest.(check int) (l ^ " replays to a state without successors")
          0 succs;
        Alcotest.(check bool) (l ^ " sequential trace is minimal") true
          (List.length we >= List.length se)
      | _ -> Alcotest.failf "workers=%d: work-stealing run must deadlock" workers)
    worker_counts

let test_toy_depth_budget_equivalence () =
  (* discovery depths are upper bounds on BFS depth, so a depth budget
     stops the work-stealing engine inside the sequential engine's
     budgeted space: it never holds more states, and it still reports
     the budget stop *)
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:20 in
  let opts =
    { Explorer.default with max_depth = Some 3; symmetry = false }
  in
  let seq = Explorer.check (Toy_spec.spec ()) scenario opts in
  List.iter
    (fun workers ->
      let ws = Par.Ws_explorer.check ~workers (Toy_spec.spec ()) scenario opts in
      let l = Fmt.str "workers=%d" workers in
      (match ws.base.outcome with
      | Explorer.Budget_spent -> ()
      | _ -> Alcotest.failf "%s: expected budget stop" l);
      Alcotest.(check bool) (l ^ " within the sequential space") true
        (ws.base.distinct <= seq.distinct && ws.base.max_depth <= 4))
    worker_counts

let test_buggy_system_equivalence () =
  (* a real registry system with an injected protocol bug: the
     work-stealing engine must find a replayable violation of the same
     invariant *)
  let module R = Systems.Registry in
  let sys = R.find "raftos" in
  let info =
    List.find (fun (b : Systems.Bug.info) -> b.flags = [ "raftos1" ]) sys.bugs
  in
  let spec = sys.spec (Systems.Bug.flags info.flags) in
  let opts =
    { Explorer.default with
      only_invariants = Some [ "MatchIndexMonotonic" ];
      time_budget = Some 120. }
  in
  let sv = seq_violation spec info.scenario opts in
  List.iter
    (fun workers ->
      check_ws_violation (Fmt.str "workers=%d" workers) spec info.scenario sv
        (Par.Ws_explorer.check ~workers spec info.scenario opts))
    worker_counts

let tiny_budget =
  [ ("timeouts", 2); ("requests", 1); ("crashes", 0); ("restarts", 0);
    ("partitions", 0); ("buffer", 2); ("drops", 0); ("dups", 0);
    ("epochs", 1) ]

let test_registry_sweep_equivalence () =
  (* every integrated system, clean spec, symmetry reduction off (test_ws
     covers it on): exhaustive totals agree at every worker count *)
  let module R = Systems.Registry in
  let opts = { Explorer.default with symmetry = false } in
  List.iter
    (fun (sys : R.t) ->
      let spec = sys.spec (Systems.Bug.flags []) in
      let scenario =
        Scenario.v ~name:(sys.name ^ "-tiny") ~nodes:2 ~workload:[ 1 ]
          tiny_budget
      in
      let seq = Explorer.check spec scenario opts in
      Alcotest.(check bool)
        (sys.name ^ " explores something") true (seq.generated > 0);
      List.iter
        (fun workers ->
          check_totals
            (Fmt.str "%s workers=%d" sys.name workers)
            seq
            (Par.Ws_explorer.check ~workers spec scenario opts))
        worker_counts)
    R.all

let trace_bytes events =
  let b = Binio.sink () in
  List.iter (Trace.encode_event b) events;
  Binio.contents b

let test_violation_trace_bytes_equal () =
  (* the counterexample must agree down to its serialized bytes — what
     replay scripts and the shrinker consume. Work stealing reports a
     counterexample of schedule-dependent depth, so the guarantee rides
     on the strict-BFS route, which must pick the sequential engine at
     every worker count and match the default -j1 route exactly *)
  let module R = Systems.Registry in
  let sys = R.find "daosraft" in
  let info =
    List.find (fun (b : Systems.Bug.info) -> b.flags = [ "daos1" ]) sys.bugs
  in
  let spec = sys.spec (Systems.Bug.flags info.flags) in
  let opts = { Explorer.default with time_budget = Some 120. } in
  let run ~strict_bfs workers =
    let engine =
      Par.Engine.choose ~strict_bfs ~workers ~resume_unordered:false
    in
    Alcotest.(check string)
      (Fmt.str "engine strict=%b workers=%d" strict_bfs workers)
      "seq" (Par.Engine.name engine);
    match engine with
    | Par.Engine.Seq -> Explorer.check spec info.scenario opts
    | Par.Engine.Ws ->
      (Par.Ws_explorer.check ~workers spec info.scenario opts).base
  in
  let violation label (r : Explorer.result) =
    match r.outcome with
    | Explorer.Violation v -> v
    | _ -> Alcotest.failf "%s: run must violate" label
  in
  let reference = run ~strict_bfs:false 1 in
  let rv = violation "workers=1" reference in
  List.iter
    (fun workers ->
      let l = Fmt.str "strict workers=%d" workers in
      let r = run ~strict_bfs:true workers in
      let v = violation l r in
      Alcotest.(check string) (l ^ " trace bytes")
        (Digest.to_hex (Digest.string (trace_bytes rv.events)))
        (Digest.to_hex (Digest.string (trace_bytes v.events)));
      Alcotest.(check (triple int int int)) (l ^ " counters")
        (reference.distinct, reference.generated, reference.max_depth)
        (r.distinct, r.generated, r.max_depth))
    worker_counts;
  Alcotest.(check string) "without strict BFS, -j2 steals work" "ws"
    (Par.Engine.name
       (Par.Engine.choose ~strict_bfs:false ~workers:2
          ~resume_unordered:false))

let test_symmetry_collision_provenance () =
  (* under symmetry reduction, distinct concrete states collide on one
     canonical fingerprint; whichever variant a worker inserts first, the
     stored provenance must replay to the state the worker went on to
     expand, or violation replay crashes ("unreplayable provenance
     chain"). Repeat the run to widen the race window. *)
  let scenario = Toy_spec.scenario ~nodes:4 ~timeouts:10 in
  let spec = Toy_spec.spec ~limit:5 () in
  let opts = { Explorer.default with symmetry = true } in
  let sv = seq_violation spec scenario opts in
  for round = 1 to 10 do
    List.iter
      (fun workers ->
        check_ws_violation
          (Fmt.str "round %d workers=%d" round workers)
          spec scenario sv
          (Par.Ws_explorer.check ~workers spec scenario opts))
      [ 2; 4 ]
  done

let test_simulate_seed_stable () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:8 in
  let spec = Toy_spec.spec ~limit:6 () in
  let opts = { Simulate.default with max_depth = 12 } in
  let run workers =
    Par.Par_simulate.walks ~workers spec scenario opts ~seed:42 ~count:40
  in
  let reference = run 1 in
  Alcotest.(check int) "count" 40 (List.length reference);
  List.iter
    (fun workers ->
      let ws = run workers in
      List.iteri
        (fun i (a, b) ->
          let a : Simulate.walk = a and b : Simulate.walk = b in
          Alcotest.(check bool)
            (Fmt.str "walk %d identical at %d workers" i workers)
            true
            (List.length a.events = List.length b.events
            && List.for_all2 Trace.equal_event a.events b.events
            && a.violation = b.violation
            && a.deadlocked = b.deadlocked))
        (List.combine reference ws))
    [ 2; 4 ];
  (* a different root seed must give different walks *)
  let other =
    Par.Par_simulate.walks ~workers:1 spec scenario opts ~seed:7 ~count:40
  in
  Alcotest.(check bool) "seed matters" true
    (List.exists2
       (fun (a : Simulate.walk) (b : Simulate.walk) ->
         List.length a.events <> List.length b.events
         || not (List.for_all2 Trace.equal_event a.events b.events))
       reference other)

let test_simulate_aggregate_matches () =
  (* parallel walks feed the same aggregation pipeline *)
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  let spec = Toy_spec.spec () in
  let ws =
    Par.Par_simulate.walks ~workers:4 spec scenario Simulate.default ~seed:5
      ~count:10
  in
  let agg = Simulate.aggregate ws in
  Alcotest.(check int) "runs" 10 agg.runs;
  Alcotest.(check int) "both tick branches covered" 2
    (Coverage.cardinal agg.union_coverage)

let test_shard_set_concurrent () =
  let set = Par.Shard_set.create ~shards:8 () in
  let fps = Array.init 500 (fun i -> Fingerprint.of_state (i mod 250)) in
  Par.Pool.with_pool 4 (fun pool ->
      Par.Pool.run pool (fun w ->
          Array.iteri
            (fun i fp ->
              if i mod 4 = w then
                ignore
                  (Par.Shard_set.add set fp (Par.Shard_set.Proot i) ~depth:0))
            fps));
  Alcotest.(check int) "distinct" 250 (Par.Shard_set.length set);
  let stats = Par.Shard_set.stats set in
  Alcotest.(check int) "shards" 8 (Array.length stats);
  let entries =
    Array.fold_left (fun n (s : Par.Shard_set.stat) -> n + s.s_entries) 0 stats
  in
  Alcotest.(check int) "stat entries" 250 entries;
  (* every fingerprint is present and kept its first-inserted provenance *)
  Array.iter
    (fun fp -> Alcotest.(check bool) "mem" true (Par.Shard_set.mem set fp))
    fps

let test_pool_runs_all_workers () =
  let hits = Array.make 4 0 in
  Par.Pool.with_pool 4 (fun pool ->
      for _ = 1 to 3 do
        Par.Pool.run pool (fun w -> hits.(w) <- hits.(w) + 1)
      done);
  Alcotest.(check (list int)) "every worker ran every job" [ 3; 3; 3; 3 ]
    (Array.to_list hits)

let test_pool_propagates_exceptions () =
  Par.Pool.with_pool 2 (fun pool ->
      match Par.Pool.run pool (fun w -> if w = 1 then failwith "boom") with
      | () -> Alcotest.fail "expected exception"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_fingerprint_closure_error () =
  (match Fingerprint.of_state ~who:"toy-closure-spec" (fun x -> x + 1) with
  | _ -> Alcotest.fail "closures must not fingerprint"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the spec" true
      (contains msg "toy-closure-spec");
    Alcotest.(check bool) "explains the cause" true (contains msg "closure"));
  (* pure data still fingerprints, with or without attribution *)
  Alcotest.(check bool) "pure data ok" true
    (Fingerprint.equal
       (Fingerprint.of_state ~who:"spec" (1, [ "a" ]))
       (Fingerprint.of_state (1, [ "a" ])))

let suite =
  ( "par",
    [ case "toy exhaustive equivalence (1/2/4 workers)"
        test_toy_exhaustive_equivalence;
      case "toy violation equivalence" test_toy_violation_equivalence;
      case "toy deadlock equivalence" test_toy_deadlock_equivalence;
      case "depth budget equivalence" test_toy_depth_budget_equivalence;
      case "buggy registry system equivalence" test_buggy_system_equivalence;
      case "registry-wide sweep equivalence (1/2/4 workers)"
        test_registry_sweep_equivalence;
      case "violation trace bytes identical under strict BFS"
        test_violation_trace_bytes_equal;
      case "symmetry-collision provenance stays replayable"
        test_symmetry_collision_provenance;
      case "simulation is seed-stable across worker counts"
        test_simulate_seed_stable;
      case "parallel walks aggregate like sequential ones"
        test_simulate_aggregate_matches;
      case "shard set under concurrent insertion" test_shard_set_concurrent;
      case "pool barrier runs every worker" test_pool_runs_all_workers;
      case "pool propagates worker exceptions" test_pool_propagates_exceptions;
      case "fingerprinting a closure names the spec"
        test_fingerprint_closure_error ] )
