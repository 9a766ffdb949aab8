(** The instrumentation surface of the engines.

    Exploration, simulation, conformance and the run store all accept an
    optional probe and report into it: named counters and gauges, phase
    spans (begin/end pairs, or explicit [t0,t1] intervals for spans whose
    endpoints are measured elsewhere, e.g. per-worker barrier waits), and a
    per-layer record fired at every BFS layer barrier.

    The probe is deliberately just a record of callbacks: [lib/core] knows
    nothing about metric registries, trace files or run directories — the
    [lib/obs] library supplies sinks that aggregate into domain-local
    collectors and emit Chrome trace-event JSON and [events.ndjsonl].

    {b Zero cost when off.} Every helper takes a [t option]; with [None]
    each call is a branch on an immediate value — no closures, no
    [Unix.gettimeofday], no allocation — so the uninstrumented hot path is
    unchanged (the bench [obs] section quantifies this).

    {b Workers.} A probe is bound to a worker index ([0] for the sequential
    engine / the coordinating domain). {!worker} derives a sibling probe for
    another worker; sinks keep per-worker state domain-local, so worker
    probes are safe to use concurrently without locks. *)

type sink = {
  s_count : worker:int -> string -> int -> unit;
      (** add [n] to a named counter *)
  s_gauge : worker:int -> string -> float -> unit;
      (** set a named gauge (sinks track last and max) *)
  s_begin : worker:int -> string -> unit;  (** open a named phase span *)
  s_end : worker:int -> string -> unit;  (** close the matching span *)
  s_span : worker:int -> string -> float -> float -> unit;
      (** a complete span with explicit [t0 t1] absolute Unix times *)
  s_layer :
    depth:int -> distinct:int -> generated:int -> frontier:int ->
    elapsed:float -> unit;
      (** one record per BFS layer barrier, from the coordinator only *)
  s_edge :
    worker:int -> depth:int -> event:Trace.event option -> dup:bool ->
    sym:bool -> unit;
      (** one BFS tree edge: a state discovery attempt at [depth] via
          [event] ([None] for init-state roots). [dup] — the fingerprint
          was already visited; [sym] — symmetry canonicalization changed
          the fingerprint (a non-identity permutation won). Fired by the
          engines for every generated successor; feeds the exploration
          profiler ([Obs.Profile]). *)
  s_edge_fix : worker:int -> depth:int -> event:Trace.event option -> unit;
      (** never called: no engine re-attributes an edge any more. The
          field stays so that sinks built as record literals outside this
          library keep compiling; [Obs.Run] fills it with a no-op. *)
}

type t

val make : ?worker:int -> sink -> t
(** A probe over [sink], bound to [worker] (default 0). *)

val for_worker : t -> int -> t

(** {2 Call-site helpers} — all over [t option]; [None] is free. *)

val none : t option
val is_on : t option -> bool
val worker : t option -> int -> t option
val count : t option -> string -> int -> unit
val gauge : t option -> string -> float -> unit
val span_begin : t option -> string -> unit
val span_end : t option -> string -> unit

val span_at : t option -> string -> t0:float -> t1:float -> unit
(** Record a completed span with endpoints the caller measured itself. *)

val layer :
  t option -> depth:int -> distinct:int -> generated:int -> frontier:int ->
  elapsed:float -> unit

val edge :
  t option -> depth:int -> event:Trace.event option -> dup:bool ->
  sym:bool -> unit
(** Report one discovery edge to the profiler. Guard the call with
    {!is_on} so the [Some event] box is never allocated when the probe is
    off. *)

val span : t option -> string -> (unit -> 'a) -> 'a
(** [span p name f] runs [f] inside a [name] span (exception-safe). With
    [None] it is just [f ()] — but note the closure argument itself may
    allocate, so prefer explicit {!span_begin}/{!span_end} on hot paths. *)
