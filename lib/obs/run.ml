open Sandtable

let metrics_file = "metrics.json"

let default_trace_phases =
  [ "expand"; "barrier-wait"; "steal-wait"; "walks"; "replay"; "checkpoint";
    "spill-io"; "shrink"; "shrink-eval" ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type t = {
  workers : int;
  t0 : float;
  collectors : Metrics.collector array;
  trace : Trace_writer.t option;
  events : Events.t option;
  telemetry : Telemetry.t option;
  profile : Profile.t;
  dir : string option;
  probe : Probe.t option;
  peak_frontier : int ref;
  layers : int ref;
  mutable finished : bool;
}

let create ?(workers = 1) ?trace_out ?dir ?(trace_phases = default_trace_phases)
    ?(telemetry = Telemetry.default_cadence) () =
  let t0 = Unix.gettimeofday () in
  let workers = max 1 workers in
  Option.iter mkdir_p dir;
  (* the watermark is process-global; a fresh run must not inherit the
     phase a previous in-process run reached *)
  Envgen.reset_phase_watermark ();
  let collectors = Metrics.create_collectors ~workers in
  let profile = Profile.create ~workers in
  let trace =
    Option.map (fun path -> Trace_writer.create ~path ~t0) trace_out
  in
  let events =
    Option.map
      (fun d -> Events.create ~path:(Filename.concat d Events.file))
      dir
  in
  let telemetry =
    match dir with
    | Some d
      when telemetry.Telemetry.tc_layers <> None
           || telemetry.Telemetry.tc_seconds <> None ->
      Some (Telemetry.create ~dir:d ~cadence:telemetry ~t0 ~workers)
    | _ -> None
  in
  let peak_frontier = ref 0 in
  let layers = ref 0 in
  (* out-of-range worker indices (defensive) fall back to collector 0 *)
  let coll w = collectors.(if w >= 0 && w < workers then w else 0) in
  let traced name = List.mem name trace_phases in
  let s_count ~worker name n = Metrics.add_count (coll worker) name n in
  let s_gauge ~worker name v = Metrics.set_gauge (coll worker) name v in
  let s_begin ~worker name =
    Metrics.begin_span (coll worker) name ~now:(Unix.gettimeofday ())
  in
  let s_end ~worker name =
    let now = Unix.gettimeofday () in
    match Metrics.end_span (coll worker) name ~now with
    | None -> ()
    | Some span_t0 ->
      if traced name then
        Option.iter
          (fun tw ->
            Trace_writer.span tw ~tid:worker ~name ~t0:span_t0 ~t1:now)
          trace
  in
  let s_span ~worker name st0 st1 =
    Metrics.add_timer (coll worker) name (st1 -. st0);
    if traced name then
      Option.iter
        (fun tw -> Trace_writer.span tw ~tid:worker ~name ~t0:st0 ~t1:st1)
        trace
  in
  let s_layer ~depth ~distinct ~generated ~frontier ~elapsed =
    incr layers;
    if frontier > !peak_frontier then peak_frontier := frontier;
    Option.iter
      (fun ev ->
        let open Store.Sjson in
        Events.emit ev
          [ ("type", Str "layer");
            ("depth", Num (float_of_int depth));
            ("distinct", Num (float_of_int distinct));
            ("generated", Num (float_of_int generated));
            ("frontier", Num (float_of_int frontier));
            ("elapsed_s", Num elapsed) ])
      events;
    (* the layer hook fires from the coordinator at the barrier — the
       quiescent point the telemetry sampler requires *)
    Option.iter
      (fun tl ->
        Telemetry.sample tl ~layer:!layers ~depth ~distinct ~generated
          ~frontier ~collectors ~now:(Unix.gettimeofday ()))
      telemetry
  in
  let s_edge ~worker ~depth ~event ~dup ~sym =
    Profile.edge profile ~worker ~depth ~event ~dup ~sym
  in
  (* no engine calls it; see Probe.sink *)
  let s_edge_fix ~worker:_ ~depth:_ ~event:_ = () in
  let probe =
    Some (Probe.make ~worker:0
            { Probe.s_count; s_gauge; s_begin; s_end; s_span; s_layer;
              s_edge; s_edge_fix })
  in
  { workers; t0; collectors; trace; events; telemetry; profile; dir; probe;
    peak_frontier; layers; finished = false }

let probe t = t.probe
let dir t = t.dir

let event t fields = Option.iter (fun ev -> Events.emit ev fields) t.events

let mark t name =
  Option.iter
    (fun tw -> Trace_writer.instant tw ~tid:0 ~name ~at:(Unix.gettimeofday ()))
    t.trace

type summary = {
  s_throughput : float;
  s_peak_frontier : int;
  s_barrier_idle_pct : float;
  s_layers : int;
  s_metrics : Metrics.summary;
  s_profile : Profile.summary;
}

let manifest_metrics s =
  { Store.Manifest.mm_states_per_sec = s.s_throughput;
    mm_peak_frontier = s.s_peak_frontier;
    mm_barrier_idle_pct = s.s_barrier_idle_pct }

let manifest_profile s =
  { Store.Manifest.mp_dup_top_source = s.s_profile.Profile.p_dup_top_source;
    mp_peak_worker_skew_pct = s.s_profile.Profile.p_peak_worker_skew_pct }

(* Whether a permutation-list lookup hits the process-global cache depends
   on domain scheduling (a lost CAS race recomputes) and on which runs
   warmed it earlier in the process — so the engines report only the raw
   lookup total, which is deterministic, and the hit/miss split is derived
   here: a run explores one [nodes] value, so exactly one lookup is a cold
   miss. *)
let derive_perm_split (m : Metrics.summary) =
  match List.assoc_opt "symmetry.perm_cache_lookups" m.Metrics.s_counters with
  | None | Some 0 -> m
  | Some lookups ->
    let counters =
      m.Metrics.s_counters
      @ [ ("symmetry.perm_cache_hits", lookups - 1);
          ("symmetry.perm_cache_misses", 1) ]
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    { m with Metrics.s_counters = counters }

let finish t ~outcome ?(distinct = 0) ?(generated = 0) ?(max_depth = 0)
    ~duration () =
  t.finished <- true;
  let now = Unix.gettimeofday () in
  Array.iter (fun c -> Metrics.drain c ~now) t.collectors;
  let m = derive_perm_split (Metrics.merge t.collectors) in
  (* barrier-idle: share of worker time spent waiting — idle-stealing
     (work-stealing engine) or at batch barriers (parallel simulation) —
     relative to productive phase time ("expand" for exploration, "walks"
     for simulation). 0 for sequential runs, which never wait. *)
  let busy =
    Metrics.timer_total m "expand" +. Metrics.timer_total m "walks"
  in
  let wait =
    Metrics.timer_total m "barrier-wait" +. Metrics.timer_total m "steal-wait"
  in
  let idle_pct =
    if busy +. wait <= 0. then 0. else 100. *. wait /. (busy +. wait)
  in
  let throughput = if duration > 0. then float generated /. duration else 0. in
  let profile = Profile.summarize t.profile in
  let summary =
    { s_throughput = throughput;
      s_peak_frontier = !(t.peak_frontier);
      s_barrier_idle_pct = idle_pct;
      s_layers = !(t.layers);
      s_metrics = m;
      s_profile = profile }
  in
  Option.iter (fun d -> Profile.write ~dir:d profile) t.dir;
  Option.iter Telemetry.close t.telemetry;
  Option.iter
    (fun d ->
      let open Store.Sjson in
      let json =
        Obj
          [ ("outcome", Str outcome);
            ("distinct", Num (float_of_int distinct));
            ("generated", Num (float_of_int generated));
            ("max_depth", Num (float_of_int max_depth));
            ("duration_s", Num duration);
            ("throughput_states_per_sec", Num throughput);
            ("peak_frontier", Num (float_of_int !(t.peak_frontier)));
            ("barrier_idle_pct", Num idle_pct);
            ("layers", Num (float_of_int !(t.layers)));
            ("metrics", Metrics.to_json m) ]
      in
      Binio.atomic_write (Filename.concat d metrics_file) (fun oc ->
          output_string oc (to_string json)))
    t.dir;
  Option.iter
    (fun ev ->
      let open Store.Sjson in
      Events.emit ev
        [ ("type", Str "done");
          ("outcome", Str outcome);
          ("distinct", Num (float_of_int distinct));
          ("generated", Num (float_of_int generated));
          ("max_depth", Num (float_of_int max_depth));
          ("duration_s", Num duration) ];
      Events.close ev)
    t.events;
  Option.iter Trace_writer.close t.trace;
  summary
