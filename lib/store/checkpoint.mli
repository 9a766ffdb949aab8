(** Durable checkpoints of an exploration, and resume.

    A checkpoint is the {!Sandtable.Explorer.snapshot} taken at a layer
    barrier (sequential engine) or a quiescent pulse (work-stealing
    engine), serialized with the {!Sandtable.Binio} wire format (section
    kind [2]) and written atomically into a run directory as
    [checkpoint.bin]. It stores only codec-friendly data — fingerprints,
    provenance, depths, counters — never marshalled spec states: on resume
    the concrete frontier states are recovered by replaying each frontier
    fingerprint's provenance chain from the initial states.

    A checkpoint records its frontier mode. A [Layered] one, written by
    the sequential engine (the engine [--strict-bfs] runs at any [-j]),
    resumes bit-for-bit on that engine and also seeds the work-stealing
    engine at any worker count. An [Unordered] one, written by the
    work-stealing engine, resumes only there; the sequential engine
    refuses it by name.

    {2 Resume invariants}

    Resuming is only sound against the exact exploration the checkpoint was
    cut from, so every checkpoint embeds an {e identity string} — spec name,
    scenario, symmetry/deadlock/invariant configuration, bug flags — and
    {!load} raises {!Mismatch} when the caller's identity differs. Budget
    options ([max_states] / [max_depth] / [time_budget]) are deliberately
    {e excluded}: interrupting a run and resuming it with a different budget
    is the point of checkpointing. *)

exception Mismatch of string
(** Raised by {!load} when the stored identity differs from the caller's —
    the message shows both identity digests and the first differing line. *)

val file : string
(** ["checkpoint.bin"], relative to the run directory. *)

val identity :
  ?extra:(string * string) list ->
  Sandtable.Spec.t -> Sandtable.Scenario.t -> Sandtable.Explorer.options ->
  string
(** Canonical identity string for an exploration: spec name, scenario,
    [symmetry], [stop_on_violation], [check_deadlock], [only_invariants],
    plus any [extra] key/value pairs (e.g. bug flags), sorted. Budgets are
    excluded (see above). *)

val digest_hex : string -> string
(** Short stable hex digest of an identity string (for manifests and
    error messages). *)

type stats = {
  ck_depth : int;  (** layer the checkpoint was cut at *)
  ck_distinct : int;  (** visited-set entries written *)
  ck_frontier : int;  (** frontier fingerprints written *)
  ck_bytes : int;  (** file size *)
  ck_seconds : float;  (** wall time spent serializing + fsyncing *)
}

val save :
  ?probe:Sandtable.Probe.t -> dir:string -> identity:string ->
  Sandtable.Explorer.snapshot -> stats
(** Atomically (re)writes [dir ^ "/" ^ file]. The directory is created if
    missing. A crash mid-save leaves the previous checkpoint intact. With
    [probe], the write runs in a ["checkpoint"] span and bumps
    [checkpoint.saves] / [checkpoint.bytes]. *)

val load : dir:string -> identity:string -> Sandtable.Explorer.snapshot
(** Raises {!Mismatch} on identity divergence, {!Sandtable.Binio.Corrupt}
    on a damaged file, [Sys_error] when absent. *)

val hook :
  ?probe:Sandtable.Probe.t ->
  dir:string -> identity:string -> every:int -> ?on_save:(stats -> unit) ->
  unit -> int -> Sandtable.Explorer.snapshot Lazy.t -> unit
(** [hook ~dir ~identity ~every ()] is an [on_layer] callback that saves a
    checkpoint whenever the layer index is a multiple of [every] (and
    forces the lazy snapshot only then). [every <= 0] never saves. *)
