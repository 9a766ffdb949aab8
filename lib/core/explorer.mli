(** Stateful breadth-first model checking (paper §3.3).

    BFS over the specification state space with fingerprint-based
    deduplication, optional symmetry reduction, invariant checking and
    counterexample reconstruction. Because search is breadth-first, the
    first violation found has minimal depth (§5.1.1). *)

type provenance =
  | Root of int  (** index into the init-state list *)
  | Step of { parent : Fingerprint.t; event : Trace.event }
(** How a state was first discovered; chains of [Step] back to a [Root]
    reconstruct counterexample traces, and replay deterministically to the
    concrete state (the checkpoint/resume mechanism relies on this). *)

type frontier_mode =
  | Layered
      (** every frontier state sits at [snap_depth] — a strict-BFS layer
          barrier; resumable by any engine *)
  | Unordered
      (** frontier states carry heterogeneous depths (work-stealing
          quiescent point, [snap_depth] = their minimum; per-state depths
          live in the visited set). Only the work-stealing engine can
          resume it — the sequential engine refuses with a named error. *)
(** Which frontier discipline produced a snapshot. *)

type snapshot = {
  snap_depth : int;  (** the layer the frontier belongs to *)
  snap_frontier : Fingerprint.t list;  (** in BFS (sequential pop) order *)
  snap_distinct : int;
  snap_generated : int;
  snap_max_depth : int;
  snap_kernel : int;
      (** the {!Fingerprint.kernel_id} that produced the snapshot's
          fingerprints *)
  snap_mode : frontier_mode;
  snap_visited : (Fingerprint.t -> provenance -> int -> unit) -> unit;
      (** iterate the visited set: fingerprint, provenance, depth. The
          iterator may stream over live or on-disk data — consume it
          immediately. *)
}
(** A quiescent-point image of an exploration. Taken via [on_layer],
    persisted by [Store.Checkpoint], and fed back through [check ~resume]
    to continue a run — bit-for-bit for [Layered] snapshots (frontier
    states are recovered by replaying their provenance chains, so
    snapshots contain only codec-friendly data). *)

type 'a frontier_ops = {
  fr_push : 'a -> unit;
  fr_pop : unit -> 'a option;  (** FIFO *)
  fr_length : unit -> int;
  fr_iter : ('a -> unit) -> unit;
      (** non-destructive, in queue order (may read spill files) *)
  fr_close : unit -> unit;  (** release any backing resources *)
}

type frontier_factory = { make_frontier : 'a. unit -> 'a frontier_ops }
(** A pluggable BFS frontier. The default is an in-memory [Queue];
    [Store.Spill.factory] bounds resident memory by spilling the middle of
    the queue to sequential chunk files. Must be FIFO — exploration order,
    and therefore every reported counter and counterexample, depends on it. *)

type options = {
  symmetry : bool;  (** collapse node-permutation-equivalent states *)
  stop_on_violation : bool;
  max_states : int option;  (** distinct-state budget *)
  max_depth : int option;
  time_budget : float option;  (** seconds *)
  check_deadlock : bool;
  only_invariants : string list option;
      (** restrict checking to these named invariants ([None] = all) *)
  progress_every : int;  (** 0 disables the callback *)
  progress : (stats -> unit) option;
  on_layer : (int -> snapshot Lazy.t -> unit) option;
      (** fired at every layer barrier (entering layer [d >= 1], before any
          of its states expand) with a lazy snapshot — forcing it costs a
          frontier + visited-set walk, so hooks should only force when they
          actually persist (e.g. every k layers) *)
  frontier : frontier_factory option;  (** [None] = in-memory queue *)
  probe : Probe.t option;
      (** observability hook ([None] = zero-cost off): phase spans
          (expand / fingerprint / symmetry-normalize / invariant), counters
          ([fp.dup], symmetry-cache hits) and one {!Probe.layer} record per
          BFS layer barrier *)
}

and stats = {
  distinct : int;
  generated : int;
  depth : int;
  frontier_len : int;  (** states queued but not yet expanded *)
  elapsed : float;
}

val default : options

type violation = {
  invariant : string;
  events : Trace.t;  (** minimal-depth trace from the initial state *)
  depth : int;
  state_repr : string;  (** pretty-printed violating state *)
}

type outcome =
  | Exhausted  (** full coverage of the constrained space *)
  | Violation of violation
  | Budget_spent  (** stopped by max_states / max_depth / time_budget *)
  | Deadlock of Trace.t
      (** a constraint-satisfying state with no successors,
          when [check_deadlock] *)

type result = {
  outcome : outcome;
  distinct : int;
  generated : int;
  max_depth : int;  (** deepest layer reached *)
  duration : float;
}

val check : ?resume:snapshot -> Spec.t -> Scenario.t -> options -> result
(** [check ?resume spec scenario opts] — with [resume], exploration
    continues from the snapshot instead of the initial states and is
    bit-for-bit identical to the uninterrupted run from that point on
    (same distinct/generated counters, same outcome, same counterexample).
    The caller is responsible for resuming with the same spec, scenario and
    options the snapshot was taken under ([Store.Checkpoint] enforces this
    with an identity hash). A snapshot whose [snap_kernel] differs from the
    current {!Fingerprint.kernel_id} is migrated transparently first (see
    {!migrate_snapshot}). Resuming an [Unordered] snapshot raises
    [Invalid_argument] naming the mode mismatch — the sequential engine
    cannot restore the layer invariant; use the work-stealing engine. *)

val migrate_snapshot : Spec.t -> Scenario.t -> options -> snapshot -> snapshot
(** Rebuild a snapshot taken under a different fingerprint kernel: every
    visited entry's provenance chain is replayed to its concrete state
    (memoized, so each state is computed once) and re-fingerprinted under
    the current kernel; frontier and provenance references are remapped
    accordingly. The result has [snap_kernel = Fingerprint.kernel_id] and
    resumes bit-for-bit like a native snapshot. Costs roughly the
    exploration work the checkpoint had banked. [check ~resume] calls this
    automatically when kernels differ; it is exposed for tools that want to
    migrate-and-save without resuming. *)

val pp_result : Format.formatter -> result -> unit

(** {2 Shared with the work-stealing engine}

    One definition of each helper both engines need. None of them sits on
    the sequential engine's per-state path except [fingerprint_info];
    the replay helpers run only on resume and violation reporting. *)

val visited_gauges :
  Probe.t option -> entries:int -> capacity:int -> store_bytes:int ->
  ?probe_steps:int -> unit -> unit
(** Report the [visited.*] gauges of a visited store. Engines call it at
    every layer barrier (or pulse) and once at the end of a run with
    [probe_steps], which adds [visited.bytes_per_state] and
    [visited.probe_steps]. No-op when the probe is off. *)

module Run (S : Spec.S) : sig
  val fingerprint_info :
    ?probe:Probe.t -> options -> Scenario.t -> S.state -> Fingerprint.t * bool
  (** The state's fingerprint — symmetry-canonical when [opts.symmetry]
      and the spec is permutable — and whether canonicalization changed
      it (the profiler's per-edge [sym] flag). Reports [symmetry-normalize]
      or [fingerprint] spans and the [fp.bytes] counter into [probe]. *)

  val selected_invariants :
    options -> (string * (Scenario.t -> S.state -> bool)) list
  (** [S.invariants] restricted by [opts.only_invariants]. *)

  val final_state : Scenario.t -> int -> Trace.t -> S.state
  (** Replay [events] from the init state with the given index. Raises
      [Invalid_argument] if some event is not enabled. *)

  val violation : Scenario.t -> int * Trace.t -> string -> int -> violation
  (** [violation scenario (init_index, events) invariant depth] builds the
      report, replaying [events] for the final state's rendering. *)

  val replayer :
    Scenario.t -> (Fingerprint.t -> provenance option) ->
    Fingerprint.t -> S.state
  (** [replayer scenario lookup] recovers concrete states by replaying
      provenance chains read through [lookup], memoizing every state it
      computes (chains share prefixes), so a whole frontier costs one
      replay per distinct ancestor. Raises [Invalid_argument] on a missing
      entry or an unreplayable event. *)

  val current_kernel : Scenario.t -> options -> snapshot -> snapshot
  (** The snapshot itself, or its {!migrate_snapshot} when it was taken
      under another fingerprint kernel. *)
end

type stateless_result = {
  sl_executions : int;  (** traces enumerated *)
  sl_states_visited : int;  (** state visits including repeats *)
  sl_distinct : int;  (** distinct fingerprints among them *)
  sl_duration : float;
}

val stateless_dfs :
  Spec.t -> Scenario.t -> max_depth:int -> ?max_visits:int -> unit ->
  stateless_result
(** Ablation baseline: stateless trace enumeration to [max_depth] without a
    visited set, quantifying the redundant re-exploration a stateless DMCK
    pays (§2.1). *)
