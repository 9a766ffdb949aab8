(** The work-stealing engine's visited set: a sharded, mutex-guarded
    fingerprint store in structure-of-arrays layout.

    The TLC analogue is the shared fingerprint set its BFS workers
    deduplicate against. Fingerprints are partitioned across [N]
    independent shards by their high bits
    ({!Sandtable.Fingerprint.shard_key} — disjoint from the in-shard
    bucket bits), so concurrent inserts contend only 1/N of the time. Each
    shard is an open-addressed slot array (linear probing, load <= 3/4)
    over dense [int] entry columns — fingerprint halves, packed
    depth/provenance, parent fingerprint halves — behind its own mutex: no
    per-entry boxing, nothing for the GC to trace. Events are interned per
    shard. The sequential engine's analogue is [Sandtable.Fp_store]. *)

type prov =
  | Proot of int  (** index into the init-state list *)
  | Pstep of Sandtable.Fingerprint.t * Sandtable.Trace.event
      (** parent fingerprint, discovering event. Cross-shard references are
          by fingerprint, keeping shards fully independent. *)

type t

type stat = {
  s_entries : int;  (** distinct fingerprints stored in the shard *)
  s_hits : int;  (** dedup hits: inserts that found an existing entry *)
}

val create : ?shards:int -> unit -> t
(** [create ~shards ()] with [shards] rounded up to a power of two
    (default 64, max 65536). *)

val shard_count : t -> int

val add : t -> Sandtable.Fingerprint.t -> prov -> depth:int -> bool
(** Insert if absent and return [true]; otherwise the existing entry
    always wins (first arrival), a dedup hit is counted and the result is
    [false]. Depth must be [< 2{^20}]. *)

val find_prov_opt : t -> Sandtable.Fingerprint.t -> prov option
val find_prov : t -> Sandtable.Fingerprint.t -> prov
(** Like {!find_prov_opt} but raises [Not_found] when absent. *)

val find_depth_opt : t -> Sandtable.Fingerprint.t -> int option
(** The stored discovery depth; [None] when absent. Used to recover
    per-state frontier depths when resuming an unordered snapshot. *)

val mem : t -> Sandtable.Fingerprint.t -> bool

val length : t -> int
(** Total distinct fingerprints (locks each shard once). *)

val iter : t -> (Sandtable.Fingerprint.t -> prov -> int -> unit) -> unit
(** Iterate every entry — fingerprint, provenance, depth — shard by shard
    (each shard locked while its entries are visited; [f] must not
    re-enter the set). Order is arbitrary. Used for quiescent-pulse
    checkpoint snapshots. *)

val capacity : t -> int
(** Total slot-array length across shards. *)

val store_bytes : t -> int
(** Exact bytes held by the slot arrays and entry columns across shards
    (excluding interned events). *)

val probe_steps : t -> int
(** Cumulative linear-probe steps beyond the home slot across shards. *)

val stats : t -> stat array
val pp_stats : Format.formatter -> t -> unit
