type t = Seq | Ws

let choose ~strict_bfs ~workers ~resume_unordered =
  if (not strict_bfs) && (workers > 1 || resume_unordered) then Ws else Seq

let name = function Seq -> "seq" | Ws -> "ws"
