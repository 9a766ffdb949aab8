(** Which exploration engine a [check] run uses. *)

type t =
  | Seq  (** {!Sandtable.Explorer.check}: exact BFS layer order *)
  | Ws  (** {!Ws_explorer.check}: barrier-free work stealing *)

val choose : strict_bfs:bool -> workers:int -> resume_unordered:bool -> t
(** The sequential engine under [strict_bfs] or at one worker; the
    work-stealing engine otherwise — and whenever the checkpoint being
    resumed has an unordered frontier ([resume_unordered]), which only
    that engine can restore. *)

val name : t -> string
(** ["seq"] or ["ws"], as recorded in run manifests. *)
