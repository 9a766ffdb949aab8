(* One benchmark process. [run.py] starts many of these and aggregates them.

     bench.exe setup   WORKLOAD SEED   set-up path only, up to the first expansion
     bench.exe run     WORKLOAD SEED   one untraced repetition of the workload,
                                       with the calibration kernel between its
                                       operations and during its explorations
     bench.exe traced  WORKLOAD SEED   the same repetition with layer timers on
     bench.exe seq     WORKLOAD SEED   explore-ws2 only: the same space on the
                                       sequential engine (equivalence check)

   Each mode prints one JSON object on stdout. The library is driven only
   through its public entry points (Explorer.check, Par.Ws_explorer.check,
   Conformance.run, Replay.confirm, Systems.Registry); layers are timed from
   outside by wrapping the spec and the SUT and by a Probe sink of our own. *)

open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Layer timers                                                         *)
(* ------------------------------------------------------------------ *)

(* Contexts: the innermost open engine span, or the public call the
   harness is inside. Wrapped calls are attributed to the context they run
   in, so a span's self time is its total minus the wrapped time inside. *)
let ctx_names =
  [| "setup"; "explore"; "expand"; "symmetry-normalize"; "fingerprint";
     "invariant"; "walk"; "replay"; "confirm"; "conform"; "steal-wait";
     "other" |]

let c_setup = 0
and c_explore = 1
and c_expand = 2
and c_sym = 3
and c_fp = 4
and c_inv = 5
and c_walk = 6
and c_replay = 7
and c_confirm = 8
and c_conform = 9
and c_steal = 10
and c_other = 11

let nctx = Array.length ctx_names

let ctx_of_name name =
  let rec go i =
    if i >= nctx then c_other
    else if String.equal ctx_names.(i) name then i
    else go (i + 1)
  in
  go 0

(* Wrapped functions. *)
let f_next = 0
and f_inv = 1
and f_permute = 2
and f_observe = 3
and f_constraint = 4
and f_init = 5
and f_boot = 6
and f_execute = 7
and f_sut_observe = 8

let nfn = 9

type dom = {
  mutable stack : (int * float) list;  (** open spans: context, start *)
  mutable ctx : int;
  base : int;  (** the context when no span is open *)
  span_s : float array;  (** closed-span seconds per context *)
  span_n : int array;
  fn_s : float array;  (** wrapped-call seconds per (function, context) *)
  fn_n : int array;
  counts : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
}

let doms = ref []
let doms_lock = Mutex.create ()
let main_domain = Domain.self ()

(* Every domain gets its own collector, so worker domains never share
   mutable state; the lists are merged after the engine has joined them.
   Only the work-stealing engine spawns domains, inside an exploration. *)
let dom_key =
  Domain.DLS.new_key (fun () ->
      let base = if Domain.self () = main_domain then c_setup else c_explore in
      let d =
        { stack = []; ctx = base; base;
          span_s = Array.make nctx 0.; span_n = Array.make nctx 0;
          fn_s = Array.make (nfn * nctx) 0.; fn_n = Array.make (nfn * nctx) 0;
          counts = Hashtbl.create 16; gauges = Hashtbl.create 16 }
      in
      Mutex.lock doms_lock;
      doms := d :: !doms;
      Mutex.unlock doms_lock;
      d)

let dom () = Domain.DLS.get dom_key

let push d c = d.stack <- (c, now ()) :: d.stack; d.ctx <- c

let pop d =
  match d.stack with
  | [] -> ()
  | (c, t0) :: rest ->
    d.span_s.(c) <- d.span_s.(c) +. (now () -. t0);
    d.span_n.(c) <- d.span_n.(c) + 1;
    d.stack <- rest;
    d.ctx <- (match rest with (c', _) :: _ -> c' | [] -> d.base)

let record fn t0 =
  let t1 = now () in
  let d = dom () in
  let i = (fn * nctx) + d.ctx in
  d.fn_s.(i) <- d.fn_s.(i) +. (t1 -. t0);
  d.fn_n.(i) <- d.fn_n.(i) + 1

(* Run [f] inside a harness context ([traced] off: just [f ()]). *)
let traced = ref false

(* Set in the run mode: calibrate between operations. *)
let calibrating = ref false

let in_ctx c f =
  if not !traced then f ()
  else begin
    let d = dom () in
    push d c;
    Fun.protect ~finally:(fun () -> pop d) f
  end

let sink =
  { Probe.s_count =
      (fun ~worker:_ name n ->
        let d = dom () in
        Hashtbl.replace d.counts name
          (n + Option.value ~default:0 (Hashtbl.find_opt d.counts name)));
    s_gauge = (fun ~worker:_ name v -> Hashtbl.replace (dom ()).gauges name v);
    s_begin = (fun ~worker:_ name -> push (dom ()) (ctx_of_name name));
    s_end = (fun ~worker:_ _ -> pop (dom ()));
    s_span =
      (fun ~worker:_ name t0 t1 ->
        let d = dom () and c = ctx_of_name name in
        d.span_s.(c) <- d.span_s.(c) +. (t1 -. t0);
        d.span_n.(c) <- d.span_n.(c) + 1);
    s_layer = (fun ~depth:_ ~distinct:_ ~generated:_ ~frontier:_ ~elapsed:_ -> ());
    s_edge = (fun ~worker:_ ~depth:_ ~event:_ ~dup:_ ~sym:_ -> ());
    s_edge_fix = (fun ~worker:_ ~depth:_ ~event:_ -> ()) }

module Timed (S : Spec.S) : Spec.S with type state = S.state = struct
  include S

  let init sc =
    let t0 = now () in
    let r = S.init sc in
    record f_init t0;
    r

  let next sc s =
    let t0 = now () in
    let r = S.next sc s in
    record f_next t0;
    r

  let constraint_ok sc s =
    let t0 = now () in
    let r = S.constraint_ok sc s in
    record f_constraint t0;
    r

  let invariants =
    List.map
      (fun (name, holds) ->
        ( name,
          fun sc s ->
            let t0 = now () in
            let r = holds sc s in
            record f_inv t0;
            r ))
      S.invariants

  let observe s =
    let t0 = now () in
    let r = S.observe s in
    record f_observe t0;
    r

  let permute p s =
    let t0 = now () in
    let r = S.permute p s in
    record f_permute t0;
    r
end

let wrap_spec spec =
  if not !traced then spec
  else
    let module S = (val spec : Spec.S) in
    (module Timed (S) : Spec.S)

let wrap_boot boot =
  if not !traced then boot
  else fun sc ->
    let t0 = now () in
    let (sut : Conformance.sut) = boot sc in
    record f_boot t0;
    { Conformance.execute =
        (fun e ->
          let t0 = now () in
          let r = sut.execute e in
          record f_execute t0;
          r);
      observe =
        (fun () ->
          let t0 = now () in
          let r = sut.observe () in
          record f_sut_observe t0;
          r) }

let probe () = if !traced then Some (Probe.make sink) else None

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type rep = {
  mutable ops : int;
  mutable failed : int;
  mutable errors : string list;
  mutable wall : float;  (** seconds inside the library calls *)
  mutable steal : float;  (** host steal time, all CPUs, during those calls *)
  mutable cpu : float;  (** process CPU time (all domains) during those calls *)
  mutable distinct : int;
  mutable generated : int;
  mutable events : int;
  mutable ttb : float list;  (** per bug flag, seconds to a verdict *)
  mutable probe_steps : float;
  mutable store_bytes : float;
  mutable ws : Par.Ws_explorer.result option;
  mutable confirm_n : int;
  mutable confirm_s : float;
  mutable calib_units : int;
  mutable calib_cpu : float;  (** CPU seconds spent in [calibrate] *)
  mutable calib_wall : float;
}

let rep () =
  { ops = 0; failed = 0; errors = []; wall = 0.; steal = 0.; cpu = 0.;
    distinct = 0; generated = 0; events = 0; ttb = []; probe_steps = 0.;
    store_bytes = 0.; ws = None; confirm_n = 0; confirm_s = 0.;
    calib_units = 0; calib_cpu = 0.; calib_wall = 0. }

let fail r fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      r.errors <- msg :: r.errors)
    fmt

(* A fixed kernel that does not touch the library. Each unit changes a
   256-byte buffer, hashes it, adds the hash into a 4 MB table and copies
   the buffer into a 256 KB ring, as an exploration fingerprints and stores
   states; then it looks a key up in a 4,096-entry string map, as the
   systems' steps and implementations look up their nodes' state. The
   buffers are [Bytes] and the table a [Bigarray], which the collector
   never scans, the map is built once, and the loop allocates nothing, so
   no collection runs inside it and its rate does not depend on the
   library's heap. Run between the operations of a repetition (and during
   its explorations, from the progress hook), its rate tracks how fast the
   machine runs at that moment; run.py divides it out of the gated rate. *)
let calib_units = 100_000
let calib_buf = Bytes.make 256 'k'
let calib_ring = Bytes.make (256 * 1024) 'k'

module SMap = Map.Make (String)

let calib_keys =
  lazy (Array.init 4096 (fun i -> Printf.sprintf "node-%d/term-%d" (i mod 7) i))

let calib_data =
  lazy
    (let t = Bigarray.(Array1.create int c_layout) (1 lsl 19) in
     Bigarray.Array1.fill t 0;
     let keys = Lazy.force calib_keys in
     t, Array.fold_left (fun m k -> SMap.add k (String.length k) m) SMap.empty keys)

let calibrate r =
  let table, map = Lazy.force calib_data and keys = Lazy.force calib_keys in
  let t0 = now () and c0 = Sys.time () in
  let acc = ref 0 in
  for i = 1 to calib_units do
    Bytes.unsafe_set calib_buf (i land 255) (Char.unsafe_chr (i land 127));
    let h = Hashtbl.hash calib_buf in
    let slot = h land ((1 lsl 19) - 1) in
    Bigarray.Array1.unsafe_set table slot (Bigarray.Array1.unsafe_get table slot + i);
    Bytes.blit calib_buf 0 calib_ring ((h land 1023) * 256) 256;
    acc := !acc + SMap.find keys.((i * 7919) land 4095) map
  done;
  ignore (Sys.opaque_identity !acc);
  r.calib_units <- r.calib_units + calib_units;
  r.calib_cpu <- r.calib_cpu +. (Sys.time () -. c0);
  r.calib_wall <- r.calib_wall +. (now () -. t0)

let op_done r = if !calibrating then calibrate r

(* Calibrate from an engine's progress hook as well. *)
let calib_hook r =
  if !calibrating then Some (fun (_ : Explorer.stats) -> calibrate r) else None

(* Seconds the hypervisor has kept this machine's virtual CPUs from
   running runnable work, summed over CPUs: the "steal" column of the
   "cpu" line of /proc/stat, in USER_HZ (100) ticks. 0 where unavailable. *)
let steal_now () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match In_channel.input_line ic with
        | Some line -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' line) with
          | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
            float_of_string steal /. 100.
          | _ -> 0.)
        | None -> 0.)
  with Sys_error _ | Failure _ -> 0.

(* A library call: its wall, CPU and steal time, less any calibration run
   from inside it. *)
let timed r f =
  let s0 = steal_now () and c0 = Sys.time () and t0 = now () in
  let k_cpu = r.calib_cpu and k_wall = r.calib_wall in
  let x = f () in
  r.wall <- r.wall +. (now () -. t0) -. (r.calib_wall -. k_wall);
  r.cpu <- r.cpu +. (Sys.time () -. c0) -. (r.calib_cpu -. k_cpu);
  r.steal <- r.steal +. (steal_now () -. s0);
  x

let workers = min 2 (Domain.recommended_domain_count ())

(* The visited-store gauges the engines set at the end of a run. *)
let take_store_gauges r =
  if !traced then begin
    let g name = Option.value ~default:0. (Hashtbl.find_opt (dom ()).gauges name) in
    r.probe_steps <- r.probe_steps +. g "visited.probe_steps";
    r.store_bytes <- r.store_bytes +. g "visited.store_bytes"
  end

let mask = Systems.Common.conformance_mask

(* explore-sym3: zookeeper, 3 nodes, sequential BFS with symmetry, stopped
   at a distinct-state cap. The engine checks the cap before each
   expansion, so the count overshoots it by at most the successors of the
   last expanded state (150,004 today). *)
let sym3_cap = 150_000
let sym3_overshoot = 64

let explore_sym3 ?(setup_only = false) r =
  let sys = R.find "zookeeper" in
  let spec = wrap_spec (sys.spec Bug.Flags.empty) in
  let opts =
    { Explorer.default with
      symmetry = true;
      max_states = Some sym3_cap;
      max_depth = (if setup_only then Some (-1) else None);
      progress_every = (if !calibrating then 10_000 else 0);
      progress = calib_hook r;
      probe = probe () }
  in
  let res =
    timed r (fun () ->
        in_ctx c_explore (fun () -> Explorer.check spec sys.default_scenario opts))
  in
  take_store_gauges r;
  r.ops <- r.ops + 1;
  r.distinct <- r.distinct + res.distinct;
  r.generated <- r.generated + res.generated;
  if not setup_only then begin
    if res.outcome <> Explorer.Budget_spent then
      fail r "explore-sym3: outcome is not budget_spent";
    if res.distinct < sym3_cap || res.distinct >= sym3_cap + sym3_overshoot then
      fail r "explore-sym3: distinct %d, expected the cap %d" res.distinct sym3_cap;
    op_done r
  end

(* explore-ws2: pysyncobj, 2 nodes, explored to exhaustion on the
   work-stealing engine. The default budget (233,463 distinct) is enlarged
   by one client request so a run lasts several seconds. *)
let ws2_scenario (sys : R.t) =
  let sc = sys.default_scenario in
  { sc with
    Scenario.name = "pysyncobj-2n-ws2";
    budget =
      List.map
        (fun (k, v) -> if k = "requests" then k, v + 1 else k, v)
        sc.budget }

let ws2_distinct = 361_394

let explore_ws2 ?(setup_only = false) ?(engine = `Ws) r =
  let sys = R.find "pysyncobj" in
  let spec = wrap_spec (sys.spec Bug.Flags.empty) in
  (* the work-stealing engine calls the progress hook at its quiescent
     pulses, once a second *)
  let opts =
    { Explorer.default with
      symmetry = true;
      max_depth = (if setup_only then Some (-1) else None);
      progress_every = (if !calibrating then 1 else 0);
      progress = calib_hook r;
      probe = probe () }
  in
  let scenario = ws2_scenario sys in
  (* The set-up path runs on one worker: it allocates the same 64-shard
     store, but spawning the second domain belongs to the exploration. Its
     start is delayed whenever the host steals the second vCPU, which made
     set-up times bimodal (8 ms or 15-23 ms). *)
  let workers = if setup_only then 1 else workers in
  let base =
    match engine with
    | `Seq -> timed r (fun () -> Explorer.check spec scenario opts)
    | `Ws ->
      let res =
        timed r (fun () ->
            in_ctx c_explore (fun () ->
                Par.Ws_explorer.check ~workers spec scenario opts))
      in
      r.ws <- Some res;
      res.base
  in
  take_store_gauges r;
  r.ops <- r.ops + 1;
  r.distinct <- r.distinct + base.distinct;
  r.generated <- r.generated + base.generated;
  if not setup_only then begin
    if base.outcome <> Explorer.Exhausted then
      fail r "explore-ws2: space not exhausted";
    if base.distinct <> ws2_distinct then
      fail r "explore-ws2: distinct %d, expected %d" base.distinct ws2_distinct;
    op_done r
  end

(* The conformance walks come from the workload seed; the library only
   sees the walks. Each (system, salt) pair gets its own stream. *)
let walk_source ~seed ~salt spec scenario =
  let rng = Random.State.make [| seed; salt |] in
  fun opts _round -> Simulate.walk ?probe:(probe ()) spec scenario opts rng

let walk_depth = 30

(* bug-hunt: every Verification-stage flag that sequential BFS reaches
   under [hunt_cap] distinct states (then replay-confirmed), and every
   Conformance-stage flag a seeded conformance run catches within
   [hunt_rounds] rounds (seeds catch them within a few hundred). The
   verdicts are pinned; the counterexample depths are only reported. *)
let hunt_cap = 2_000_000
let hunt_rounds = 5_000

let verification_flags =
  [ "PySyncObj#2"; "PySyncObj#3"; "PySyncObj#4"; "PySyncObj#5"; "WRaft#4";
    "WRaft#5"; "WRaft#7"; "DaosRaft#1"; "RaftOS#1"; "RaftOS#2"; "RaftOS#4";
    "Xraft#1"; "Xraft-KV#1" ]

let conformance_flags = [ "PySyncObj#1"; "RaftOS#3"; "Xraft#2" ]

let find_bug id =
  let sys =
    List.find (fun (s : R.t) -> List.exists (fun (b : Bug.info) -> b.id = id) s.bugs) R.all
  in
  sys, List.find (fun (b : Bug.info) -> b.id = id) sys.bugs

let hunt_verification ?(setup_only = false) r id =
  let t0 = now () in
  let sys, info = find_bug id in
  let bugs = Bug.flags info.flags in
  let spec = wrap_spec (sys.spec bugs) in
  let opts =
    { Explorer.default with
      max_states = Some hunt_cap;
      max_depth = (if setup_only then Some (-1) else None);
      only_invariants = Option.map (fun i -> [ i ]) info.invariant;
      probe = probe () }
  in
  let res =
    timed r (fun () -> in_ctx c_explore (fun () -> Explorer.check spec info.scenario opts))
  in
  take_store_gauges r;
  r.ops <- r.ops + 1;
  r.distinct <- r.distinct + res.distinct;
  r.generated <- r.generated + res.generated;
  if not setup_only then
    match res.outcome with
    | Explorer.Violation v -> (
      let c0 = now () in
      let confirmation =
        timed r (fun () ->
            in_ctx c_confirm (fun () ->
                Replay.confirm ~mask spec
                  ~boot:(wrap_boot (fun sc -> sys.sut bugs None sc))
                  info.scenario v.events))
      in
      r.confirm_n <- r.confirm_n + 1;
      r.confirm_s <- r.confirm_s +. (now () -. c0);
      r.ttb <- (now () -. t0) :: r.ttb;
      (match confirmation with
      | Replay.Confirmed _ -> ()
      | Replay.False_alarm _ -> fail r "%s: replay came back False_alarm" id);
      op_done r)
    | _ -> fail r "%s: no violation found" id

let hunt_conformance ~seed r salt id =
  let t0 = now () in
  let sys, info = find_bug id in
  let bugs = Bug.flags info.flags in
  let spec = wrap_spec (sys.spec Bug.Flags.empty) in
  let report =
    timed r (fun () ->
        in_ctx c_conform (fun () ->
            Conformance.run ~mask ~walk_depth
              ~walk_source:(walk_source ~seed ~salt spec info.scenario)
              ?probe:(probe ()) spec
              ~boot:(wrap_boot (fun sc -> sys.sut bugs None sc))
              info.scenario ~rounds:hunt_rounds ~seed))
  in
  r.ops <- r.ops + 1;
  r.events <- r.events + report.total_events;
  r.ttb <- (now () -. t0) :: r.ttb;
  if report.discrepancy = None then
    fail r "%s: not caught in %d rounds" id hunt_rounds;
  op_done r

let bug_hunt ?(setup_only = false) ~seed r =
  if setup_only then hunt_verification ~setup_only r (List.hd verification_flags)
  else begin
    List.iter (hunt_verification r) verification_flags;
    List.iteri (fun i id -> hunt_conformance ~seed r (100 + i) id) conformance_flags
  end

(* conform: clean specs against clean implementations on the 3-node
   systems, a fixed number of rounds of seeded walks each. Every round is
   one operation; a discrepancy fails it. *)
let conform_systems = [ "daosraft"; "xraft"; "xraft-kv"; "zookeeper" ]
let conform_rounds = 300

let conform ?(setup_only = false) ~seed r =
  List.iteri
    (fun salt name ->
      if (not setup_only) || salt = 0 then begin
        let sys = R.find name in
        let spec = wrap_spec (sys.spec Bug.Flags.empty) in
        let scenario = sys.default_scenario in
        let rounds = if setup_only then 1 else conform_rounds in
        let walk_depth = if setup_only then 0 else walk_depth in
        let report =
          timed r (fun () ->
              in_ctx c_conform (fun () ->
                  Conformance.run ~mask ~walk_depth
                    ~walk_source:(walk_source ~seed ~salt spec scenario)
                    ?probe:(probe ()) spec
                    ~boot:(wrap_boot (fun sc -> sys.sut Bug.Flags.empty None sc))
                    scenario ~rounds ~seed))
        in
        r.ops <- r.ops + report.rounds_run;
        r.events <- r.events + report.total_events;
        (match report.discrepancy with
        | None -> ()
        | Some d -> fail r "conform %s: discrepancy in round %d" name d.round);
        if not setup_only then op_done r
      end)
    conform_systems

let run_workload ?setup_only ~seed r = function
  | "explore-sym3" -> explore_sym3 ?setup_only r
  | "explore-ws2" -> explore_ws2 ?setup_only r
  | "bug-hunt" -> bug_hunt ?setup_only ~seed r
  | "conform" -> conform ?setup_only ~seed r
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (traced mode)                                       *)
(* ------------------------------------------------------------------ *)

let layer_metrics workload r ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) =
  let ds = !doms in
  let span c = List.fold_left (fun a d -> a +. d.span_s.(c)) 0. ds in
  let span_n c = List.fold_left (fun a d -> a + d.span_n.(c)) 0 ds in
  let fn_s ?ctx f =
    List.fold_left
      (fun a d ->
        match ctx with
        | Some c -> a +. d.fn_s.((f * nctx) + c)
        | None ->
          let s = ref a in
          for c = 0 to nctx - 1 do s := !s +. d.fn_s.((f * nctx) + c) done;
          !s)
      0. ds
  in
  let fn_n f =
    List.fold_left
      (fun a d ->
        let s = ref a in
        for c = 0 to nctx - 1 do s := !s + d.fn_n.((f * nctx) + c) done;
        !s)
      0 ds
  in
  let count name =
    List.fold_left
      (fun a d -> a + Option.value ~default:0 (Hashtbl.find_opt d.counts name))
      0 ds
  in
  let wrapped_in c =
    let s = ref 0. in
    for f = 0 to nfn - 1 do s := !s +. fn_s ~ctx:c f done;
    !s
  in
  let ratio a b = if b = 0. then 0. else a /. b in
  let fi = float_of_int in
  let distinct = fi r.distinct and generated = fi r.generated in
  (* spans the engines open inside "expand"; "fingerprint" only without
     symmetry, where it does the marshal-and-hash that "symmetry-normalize"
     does per permutation, so both count as the symmetry layer *)
  let sym_s = span c_sym and fp_s = span c_fp in
  (* the work-stealing engine reports its expand spans after the fact, so
     wrapped calls on its workers run in the harness's "explore" context *)
  let explorer_self =
    span c_expand -. wrapped_in c_expand -. wrapped_in c_explore -. sym_s
    -. fp_s -. wrapped_in c_inv
  in
  let symmetry = sym_s +. fp_s -. wrapped_in c_sym -. wrapped_in c_fp in
  let conformance_self = span c_replay -. wrapped_in c_replay in
  let simulate_self = span c_walk -. wrapped_in c_walk in
  let replay_self = r.confirm_s -. wrapped_in c_confirm in
  let steal_wait = span c_steal in
  let fp_states = fi (span_n c_sym + span_n c_fp) in
  let ws_busy, ws_skew, steals, steal_failed_frac =
    match r.ws with
    | None -> 0., 0., 0., 0.
    | Some w ->
      let busy =
        Array.fold_left (fun a (s : Par.Ws_explorer.worker_stat) -> a +. s.w_busy) 0. w.worker_stats
      in
      let exp =
        Array.map (fun (s : Par.Ws_explorer.worker_stat) -> fi s.w_expanded) w.worker_stats
      in
      let mean = Array.fold_left ( +. ) 0. exp /. fi (Array.length exp) in
      let mx = Array.fold_left max 0. exp in
      ( ratio busy (r.wall *. fi w.workers),
        ratio mx mean -. 1.,
        fi w.steals,
        ratio (fi w.steal_failed) (fi (w.steals + w.steal_failed)) )
  in
  let store = if r.ws = None then "fp_store" else "shard_set" in
  let other_store = if r.ws = None then "shard_set" else "fp_store" in
  let explores = r.distinct > 0 in
  let units = if workload = "conform" then fi r.events else distinct in
  let engine_s = fn_s f_boot +. fn_s f_execute +. fn_s f_sut_observe in
  let domains = match r.ws with Some w -> fi w.workers | None -> 1. in
  let layers =
    [ "systems.next", fn_s f_next;
      "systems.invariant", fn_s f_inv;
      "systems.permute", fn_s f_permute;
      "systems.other", fn_s f_observe +. fn_s f_constraint +. fn_s f_init;
      "symmetry", symmetry;
      "explorer.self", explorer_self;
      "ws_explorer.steal_wait", steal_wait;
      "engine", engine_s;
      "conformance.self", conformance_self;
      "simulate.self", simulate_self;
      "replay.self", replay_self ]
  in
  let layer_total = List.fold_left (fun a (_, s) -> a +. s) 0. layers in
  ( [ "systems.next.calls", fi (fn_n f_next);
      "systems.next.s", fn_s f_next;
      "systems.invariant.calls", fi (fn_n f_inv);
      "systems.invariant.s", fn_s f_inv;
      "systems.permute.calls", fi (fn_n f_permute);
      "systems.permute.s", fn_s f_permute;
      "systems.observe.s", fn_s f_observe;
      "systems.constraint.s", fn_s f_constraint;
      "symmetry.s", symmetry;
      "symmetry.perms_per_state", ratio (fi (fn_n f_permute)) (fi (span_n c_sym));
      "fingerprint.bytes_per_state", ratio (fi (count "fp.bytes")) fp_states;
      store ^ ".dup_frac", ratio (fi (count "fp.dup")) generated;
      store ^ ".bytes_per_state", ratio r.store_bytes distinct;
      store ^ ".probe_steps_per_op", ratio r.probe_steps generated;
      other_store ^ ".dup_frac", 0.;
      other_store ^ ".bytes_per_state", 0.;
      other_store ^ ".probe_steps_per_op", 0.;
      "explorer.generated_per_distinct", ratio generated distinct;
      "explorer.self_s", (if explores then explorer_self else 0.);
      "ws_explorer.busy_frac", ws_busy;
      "ws_explorer.steal_wait_s", steal_wait;
      "ws_explorer.steal.count", steals;
      "ws_explorer.steal.failed_frac", steal_failed_frac;
      "ws_explorer.worker_skew", ws_skew;
      "engine.boot.s", fn_s f_boot;
      "engine.execute.calls", fi (fn_n f_execute);
      "engine.execute.s", fn_s f_execute;
      "engine.observe.s", fn_s f_sut_observe;
      "conformance.self_s", conformance_self;
      "simulate.self_s", simulate_self;
      "replay.confirm.calls", fi r.confirm_n;
      "replay.confirm.s", r.confirm_s;
      "gc.minor_words_per_state", ratio (gc1.minor_words -. gc0.minor_words) units;
      "gc.promoted_words_per_state",
      ratio (gc1.promoted_words -. gc0.promoted_words) units;
      "gc.major_collections", fi (gc1.major_collections - gc0.major_collections);
      "trace.coverage", ratio layer_total (r.wall *. domains) ],
    layers )

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_floats l = json_obj (List.map (fun (k, v) -> k, json_float v) l)

let usage () =
  prerr_endline "usage: bench.exe (setup|run|traced|seq) WORKLOAD SEED";
  exit 2

let () =
  let mode, workload, seed =
    match Sys.argv with
    | [| _; m; w; s |] -> (
      match int_of_string_opt s with Some s -> m, w, s | None -> usage ())
    | _ -> usage ()
  in
  let r = rep () in
  match mode with
  | "setup" ->
    run_workload ~setup_only:true ~seed r workload;
    (* CPU time of this process so far, all of it set-up: exec, runtime and
       library initialisation, then the workload's set-up path *)
    print_endline (json_obj [ "setup_cpu_s", json_float (Sys.time ()) ])
  | "seq" ->
    explore_ws2 ~engine:`Seq r;
    print_endline
      (json_obj
         [ "distinct", string_of_int r.distinct;
           "generated", string_of_int r.generated ])
  | "run" | "traced" ->
    traced := mode = "traced";
    calibrating := mode = "run";
    op_done r;
    let gc0 = Gc.quick_stat () in
    run_workload ~seed r workload;
    let gc1 = Gc.quick_stat () in
    let ttb = List.rev r.ttb in
    let layers =
      if !traced then
        let metrics, layers = layer_metrics workload r ~gc0 ~gc1 in
        [ "layers", json_floats metrics; "layer_self_s", json_floats layers ]
      else []
    in
    print_endline
      (json_obj
         ([ "ops", string_of_int r.ops;
            "failed", string_of_int r.failed;
            "errors", "[" ^ String.concat ", " (List.map json_string (List.rev r.errors)) ^ "]";
            "wall_s", json_float r.wall;
            "steal_s", json_float r.steal;
            "cpu_s", json_float r.cpu;
            "distinct", string_of_int r.distinct;
            "generated", string_of_int r.generated;
            "events", string_of_int r.events;
            "ttb_s", "[" ^ String.concat ", " (List.map json_float ttb) ^ "]";
            "calib_units", string_of_int r.calib_units;
            "calib_cpu_s", json_float r.calib_cpu;
            "cores", string_of_int (Domain.recommended_domain_count ());
            "workers", string_of_int (match r.ws with Some w -> w.workers | None -> 1) ]
         @ layers))
  | _ -> usage ()
