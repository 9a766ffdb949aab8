type sink = {
  s_count : worker:int -> string -> int -> unit;
  s_gauge : worker:int -> string -> float -> unit;
  s_begin : worker:int -> string -> unit;
  s_end : worker:int -> string -> unit;
  s_span : worker:int -> string -> float -> float -> unit;
  s_layer :
    depth:int -> distinct:int -> generated:int -> frontier:int ->
    elapsed:float -> unit;
  s_edge :
    worker:int -> depth:int -> event:Trace.event option -> dup:bool ->
    sym:bool -> unit;
  s_edge_fix : worker:int -> depth:int -> event:Trace.event option -> unit;
}

type t = { worker : int; sink : sink }

let make ?(worker = 0) sink = { worker; sink }
let for_worker t w = if w = t.worker then t else { t with worker = w }

(* Every helper takes a [t option] and starts with a match on it: when the
   probe is [None] (observability off) each call compiles to a test on an
   immediate — no closure allocation, no timestamp reads, no table lookups.
   This is what keeps the uninstrumented hot path unchanged. *)

let none : t option = None
let is_on = function None -> false | Some _ -> true

let worker p w =
  match p with None -> None | Some t -> Some (for_worker t w)

let count p name n =
  match p with None -> () | Some t -> t.sink.s_count ~worker:t.worker name n

let gauge p name v =
  match p with None -> () | Some t -> t.sink.s_gauge ~worker:t.worker name v

let span_begin p name =
  match p with None -> () | Some t -> t.sink.s_begin ~worker:t.worker name

let span_end p name =
  match p with None -> () | Some t -> t.sink.s_end ~worker:t.worker name

let span_at p name ~t0 ~t1 =
  match p with
  | None -> ()
  | Some t -> t.sink.s_span ~worker:t.worker name t0 t1

let layer p ~depth ~distinct ~generated ~frontier ~elapsed =
  match p with
  | None -> ()
  | Some t -> t.sink.s_layer ~depth ~distinct ~generated ~frontier ~elapsed

(* Callers guard with [is_on] before building the [event] option so the
   probe-off path never allocates the [Some]. *)
let edge p ~depth ~event ~dup ~sym =
  match p with
  | None -> ()
  | Some t -> t.sink.s_edge ~worker:t.worker ~depth ~event ~dup ~sym

let span p name f =
  match p with
  | None -> f ()
  | Some t ->
    t.sink.s_begin ~worker:t.worker name;
    Fun.protect
      ~finally:(fun () -> t.sink.s_end ~worker:t.worker name)
      f
