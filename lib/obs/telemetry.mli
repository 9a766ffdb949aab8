(** Time-series run telemetry: one ndjson record per sampled BFS layer
    barrier (sequential engine) or quiescent pulse (work-stealing engine),
    appended to [telemetry.ndjsonl] in the run directory and flushed per
    line (a crashed run keeps every completed sample; [stats --follow]
    tails it live).

    Samples are taken by {!Run}'s layer hook {e at the barrier}, while
    every worker domain is parked — the only point where per-worker
    collectors can be read without races. Under the sequential engine the
    layer-aligned fields (layer, depth, distinct, generated, frontier,
    fault phase) are deterministic; pulses are timed, so under work
    stealing they are not.
    Wall-clock fields — per-worker states/s and expand vs barrier-wait
    split, spill bytes, GC heap words and major collections — are
    diagnostic and machine-dependent. *)

val file : string
(** ["telemetry.ndjsonl"], relative to the run directory. *)

type cadence = { tc_layers : int option; tc_seconds : float option }
(** Sample when the layer index is a multiple of [tc_layers], {e or} when
    [tc_seconds] have elapsed since the previous sample — whichever fires
    first; both [None] disables sampling entirely. *)

val default_cadence : cadence
(** Every layer. Layer counts are bounded by the exploration depth (tens,
    not thousands), so per-layer sampling is cheap. *)

val parse_cadence : string -> (cadence, string) result
(** ["0"] → never, ["5"] → every 5 layers, ["2s"]/["0.5s"] → time-based. *)

type t

val create : dir:string -> cadence:cadence -> t0:float -> workers:int -> t

val sample :
  t -> layer:int -> depth:int -> distinct:int -> generated:int ->
  frontier:int -> collectors:Metrics.collector array -> now:float -> unit
(** Append one record if the cadence says this barrier is due; otherwise a
    no-op. Call only from the coordinator at a quiescent layer barrier. *)

val samples : t -> int
(** Records written so far. *)

val close : t -> unit
