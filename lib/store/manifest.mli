(** Per-run [manifest.json]: what ran, how it ended, where the artefacts
    are.

    Written atomically at run start ([Running]), rewritten at completion
    ([Done] / [Failed]). Human-readable and machine-parseable (plain JSON);
    the [runs] CLI command lists a tree of run directories from these. *)

type status = Running | Done | Failed

type metrics = {
  mm_states_per_sec : float;  (** generated states / wall seconds *)
  mm_peak_frontier : int;  (** largest BFS layer *)
  mm_barrier_idle_pct : float;
      (** % of worker busy+wait time spent waiting: steal waits under the
          work-stealing engine, barrier waits in parallel simulation (0
          for the sequential engine) *)
}
(** Observability summary recorded by instrumented runs (schema v2). Plain
    numbers so the store stays independent of [lib/obs], which computes
    them. *)

type shrink = {
  ms_original : int;  (** event count of the recorded counterexample *)
  ms_minimized : int;  (** event count after shrinking *)
  ms_trace : string option;
      (** relative path of the minimized trace, when written *)
}
(** Counterexample-shrinking summary (schema v3; absent in older
    manifests, which load with the field [None]). *)

type profile = {
  mp_dup_top_source : string option;
      (** the (event kind × node / node-pair) attribution key with the
          most duplicate hits, e.g. ["deliver n1>n2"]; [None] when the run
          saw no duplicates *)
  mp_peak_worker_skew_pct : float;
      (** how far the busiest worker's edge count sat above the mean *)
}
(** Exploration-profile scalars (schema v5); the per-depth and per-event
    histograms live in the run directory's [profile.json]. *)

type t = {
  m_version : int;  (** manifest schema version, currently 6 *)
  m_system : string;
  m_scenario : string;
  m_identity : string;  (** identity digest ({!Checkpoint.digest_hex}) *)
  m_created : string;  (** UTC, ISO-8601 *)
  m_engine : string;
      (** ["seq"] (the sequential engine, also under [--strict-bfs] at any
          [-j]) or ["ws"]. Manifests from releases with the removed
          layer-synchronous engine say ["par"]; they load unchanged. *)
  m_workers : int;
  m_cores : int;
      (** CPU cores available to the run (schema v6; [0] = unknown, the
          value pre-v6 manifests load with). Scaling gates refuse to
          compare runs whose [m_cores < m_workers] — oversubscribed
          workers measure the scheduler, not the engine. *)
  m_flags : (string * string) list;  (** config knobs, e.g. bug flags *)
  m_status : status;
  m_outcome : string option;  (** e.g. ["violation: AgreeInv"] once done *)
  m_distinct : int;
  m_generated : int;
  m_max_depth : int;
  m_duration : float;
  m_checkpoints : int;  (** checkpoints written during the run *)
  m_checkpoint : string option;  (** relative path, when one exists *)
  m_trace : string option;  (** relative path of the counterexample trace *)
  m_metrics : metrics option;
      (** [None] for uninstrumented runs and all v1 manifests (v1 files
          still load; the field is simply absent) *)
  m_shrink : shrink option;  (** [None] until a counterexample is shrunk *)
  m_faults : string option;
      (** canonical fault-schedule source (schema v4) when the run was
          driven by one; lets resume and shrink replay the same schedule.
          Absent in older manifests, which load with [None]. *)
  m_profile : profile option;
      (** [None] for uninstrumented runs and all pre-v5 manifests *)
}

val version : int
val file : string
(** ["manifest.json"], relative to the run directory. *)

val make :
  system:string -> scenario:string -> identity:string -> engine:string ->
  workers:int -> ?cores:int -> flags:(string * string) list -> unit -> t
(** A fresh [Running] manifest stamped with the current UTC time.
    [cores] defaults to [0] (unknown). *)

val save : dir:string -> t -> unit
(** Atomic write of [dir ^ "/" ^ file]; creates [dir] if missing. *)

val load : dir:string -> (t, string) result

val list_runs : string -> (string * (t, string) result) list
(** Immediate subdirectories of the given root that contain a manifest,
    sorted by name; unreadable manifests surface as [Error] rather than
    being dropped. *)

val status_string : status -> string
val pp : Format.formatter -> t -> unit
(** One-line summary, used by the [runs] command. *)
